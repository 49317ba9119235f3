"""Parser for algebra/module description files.

Line-oriented: `[algebra]` and `[module NAME]` sections hold `key = value`
pairs, `#` starts a comment.  Bracket entries use the polynomial grammar
with variables d and l only:

    [algebra]
    generators = L0 L1
    grades = 0 1
    truncation = 1
    p_0_0 = d + 2*l
    p_0_1 = d + l          # graded: target generator is the grade sum
    p_1_0_1 = l            # explicit target as a third index

    [module M]
    basis = v
    action_0 = d + l + 2
    action_1 = 0, 1 ; 1, 0  # rows split by ';', entries by ','

Built-in algebras are requested by name with their parameters:

    [algebra]
    builtin = block        # virasoro | block | map_virasoro_poly
    p = 1                  #   current | vir_semidirect_current (lie = sl2 |
    truncation = 8         #   abelian<n> | nonabelian2, a = <scalar>)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    ConformalAlgebra,
    InvalidStructure,
    abelian_constants,
    block,
    current,
    map_virasoro_poly,
    nonabelian2_constants,
    sl2_constants,
    vir_semidirect_current,
    virasoro,
)
from .modules import ConformalModule
from .parsing import MAX_DIGITS, ParseError, parse_poly, parse_scalar
from .poly import MultiPoly

# one cap on the generators of any algebra section, explicit or builtin,
# checked before the algebra is built: check-algebra at the cap took at
# most 2.2 s on a 2-vCPU VM (map_virasoro_poly, whose associativity check
# grows with the fourth power of n, took 43 s at 64)
MAX_GENERATORS = 32


class UnknownGenerator(ValueError):
    pass


class DuplicateDefinition(ValueError):
    pass


@dataclass
class SpecFile:
    algebra: ConformalAlgebra
    modules: dict[str, ConformalModule] = field(default_factory=dict)
    virasoro_gen: int = 0


def _split_sections(text: str):
    sections = []
    current_name = None
    current_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", lineno, len(line))
            if current_name is not None:
                sections.append((current_name, current_lines))
            current_name = stripped[1:-1].strip()
            current_lines = []
        else:
            if current_name is None:
                raise ParseError("content before any section header", lineno, 1)
            current_lines.append((lineno, line))
    if current_name is not None:
        sections.append((current_name, current_lines))
    return sections


def _parse_pairs(lines) -> dict[str, tuple[int, str, int]]:
    """key -> (spec line, stripped value, column of the value in that line)."""
    pairs: dict[str, tuple[int, str, int]] = {}
    for lineno, line in lines:
        # several pairs may share a line, separated by ';'; matrix values
        # also use ';' between rows, so only split when every piece is a pair
        chunks = []
        offset = 0
        for piece in line.split(";"):
            if piece.strip():
                chunks.append((offset, piece))
            offset += len(piece) + 1
        if len(chunks) < 2 or not all("=" in c for _, c in chunks):
            chunks = [(0, line)]
        for offset, chunk in chunks:
            if "=" not in chunk:
                raise ParseError("expected key = value", lineno, 1)
            key, value = chunk.split("=", 1)
            # 1-based column of the first non-blank character after the '='
            column = offset + len(key) + 2 + len(value) - len(value.lstrip())
            key = key.strip()
            value = value.strip()
            if not key:
                raise ParseError("empty key", lineno, 1)
            if key in pairs:
                raise DuplicateDefinition(f"duplicate key {key!r} (line {lineno})")
            pairs[key] = (lineno, value, column)
    return pairs


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
        return value[1:-1]
    return value


def _unquote_at(value: str, column: int) -> tuple[str, int]:
    """_unquote(value) and its column, for a value that starts at this column of its line."""
    text = _unquote(value)
    # past the leading blanks, and past the opening quote if one was removed
    return text, column + len(value) - len(value.lstrip()) + (text != value.strip())


def _poly_entry(value: str, lineno: int, column: int) -> MultiPoly:
    """The polynomial of one entry that starts at this column of spec line lineno.

    A ParseError inside the entry names the spec line and the column counted
    from the start of that line.
    """
    text, column = _unquote_at(value, column)
    try:
        poly = parse_poly(text)
    except ParseError as exc:
        raise ParseError(exc.message, lineno, column + exc.column - 1) from None
    if not poly.uses_only(("d", "l")):
        raise ParseError("bracket entries may only use d and l", lineno, column)
    return poly


def _is_index(text: str) -> bool:
    """True for a nonempty run of at most MAX_DIGITS of the ASCII digits 0-9 only."""
    return text.isascii() and text.isdigit() and len(text) <= MAX_DIGITS


def _count(text: str, lineno: int, what: str) -> int:
    """A nonnegative integer written in the ASCII digits 0-9 only."""
    if not _is_index(text):
        raise ParseError(f"{what} must be a nonnegative integer, got {text!r}", lineno, 1)
    return int(text)


def _cap_generators(count: int, lineno: int, column: int) -> None:
    """Refuse an algebra of more than MAX_GENERATORS generators, before it is built."""
    if count > MAX_GENERATORS:
        raise ParseError(f"{count} generators exceed {MAX_GENERATORS}", lineno, column)


def _bracket_indices(key: str, lineno: int) -> list[int]:
    """Indices from p_i_j, p_i_j_k, or the compact single-digit forms p_ij, p_ijk."""
    rest = key[2:]
    if "_" in rest:
        parts = rest.split("_")
    elif _is_index(rest) and len(rest) in (2, 3):
        parts = list(rest)
    else:
        parts = [rest]
    if len(parts) not in (2, 3) or not all(_is_index(p) for p in parts):
        raise ParseError(f"malformed bracket key {key!r}", lineno, 1)
    return [int(p) for p in parts]


_LIE_PRESETS = {
    "sl2": sl2_constants,
    "nonabelian2": nonabelian2_constants,
}


def _builtin_algebra(pairs) -> ConformalAlgebra:
    name = _unquote(pairs["builtin"][1])

    def scalar_of(key, default=None):
        if key not in pairs:
            if default is None:
                raise InvalidStructure(f"builtin {name!r} needs parameter {key!r}")
            return default
        return parse_scalar(_unquote(pairs[key][1]))

    def size_of(key, extra=0):
        """The integer parameter key of a builtin with key + extra generators."""
        if key not in pairs:
            raise InvalidStructure(f"builtin {name!r} needs parameter {key!r}")
        lineno, value, column = pairs[key]
        size = _count(_unquote(value), lineno, key)
        _cap_generators(size + extra, lineno, column)
        return size

    if name == "virasoro":
        return virasoro()
    if name == "block":
        return block(scalar_of("p"), size_of("truncation", extra=1))
    if name == "map_virasoro_poly":
        return map_virasoro_poly(size_of("n"))
    if name in ("current", "vir_semidirect_current"):
        lie_line, lie, lie_column = pairs.get("lie", (0, "sl2", 1))
        lie = _unquote(lie)
        if lie.startswith("abelian"):
            size = _count(lie[len("abelian"):], lie_line, "abelian<n>")
            # vir_semidirect_current adds its Virasoro generator
            _cap_generators(size + (name == "vir_semidirect_current"), lie_line, lie_column)
            constants, labels = abelian_constants(size)
        elif lie in _LIE_PRESETS:
            constants, labels = _LIE_PRESETS[lie]()
        else:
            raise InvalidStructure(f"unknown Lie algebra preset {lie!r}")
        if name == "current":
            return current(constants, labels)
        return vir_semidirect_current(scalar_of("a"), constants, labels)
    raise InvalidStructure(f"unknown builtin {name!r}")


def _explicit_algebra(pairs) -> ConformalAlgebra:
    if "generators" not in pairs:
        raise InvalidStructure("algebra section needs generators or a builtin")
    lineno, value, column = pairs["generators"]
    gens = tuple(value.split())
    n = len(gens)
    _cap_generators(n, lineno, column)
    grades = None
    if "grades" in pairs:
        lineno, value, _ = pairs["grades"]
        values = [_count(x, lineno, "grades") for x in value.split()]
        if len(values) != n:
            raise InvalidStructure("grades must match the generator list")
        grades = {i: g for i, g in enumerate(values)}
    truncation = None
    if "truncation" in pairs:
        lineno, value, _ = pairs["truncation"]
        truncation = _count(value, lineno, "truncation")
    table: dict[tuple[int, int], dict[int, MultiPoly]] = {}
    for key, (lineno, value, column) in pairs.items():
        if not key.startswith("p_"):
            continue
        parts = _bracket_indices(key, lineno)
        i, j = parts[0], parts[1]
        for idx in (i, j):
            if idx >= n:
                raise UnknownGenerator(f"{key!r} references generator {idx} (line {lineno})")
        if len(parts) == 3:
            k = parts[2]
            if k >= n:
                raise UnknownGenerator(f"{key!r} targets generator {k} (line {lineno})")
        else:
            if grades is None:
                raise InvalidStructure(
                    f"{key!r} needs an explicit target when the algebra is ungraded"
                )
            target_grade = grades[i] + grades[j]
            matches = [t for t, g in grades.items() if g == target_grade]
            if not matches:
                raise UnknownGenerator(
                    f"{key!r}: no generator of grade {target_grade} (line {lineno})"
                )
            k = matches[0]
        poly = _poly_entry(value, lineno, column)
        entry = table.setdefault((i, j), {})
        if k in entry:
            raise DuplicateDefinition(f"duplicate bracket component {key!r} (line {lineno})")
        if not poly.is_zero():
            entry[k] = poly
    return ConformalAlgebra(gens, table, grades=grades, truncation=truncation)


def _parse_matrix(value: str, lineno: int, column: int, size: int) -> list[list[MultiPoly]]:
    text, column = _unquote_at(value, column)
    out = []
    for row in text.split(";"):
        cells = []
        for cell in row.split(","):
            cells.append(_poly_entry(cell, lineno, column))
            column += len(cell) + 1
        out.append(cells)
    if len(out) != size or any(len(r) != size for r in out):
        raise InvalidStructure(
            f"action matrix on line {lineno} must be {size}x{size}"
        )
    return out


def _module_section(pairs, algebra: ConformalAlgebra) -> ConformalModule:
    if "basis" not in pairs:
        raise InvalidStructure("module section needs a basis")
    basis = tuple(pairs["basis"][1].split())
    size = len(basis)
    actions: dict[int, list[list[MultiPoly]]] = {}
    for key, (lineno, value, column) in pairs.items():
        if not key.startswith("action_"):
            continue
        idx_text = key[len("action_"):]
        if not _is_index(idx_text):
            raise ParseError(f"malformed action key {key!r}", lineno, 1)
        gen = int(idx_text)
        if gen >= algebra.n_gens:
            raise UnknownGenerator(f"{key!r} references generator {gen} (line {lineno})")
        actions[gen] = _parse_matrix(value, lineno, column, size)
    for gen in range(algebra.n_gens):
        actions.setdefault(gen, [[MultiPoly.zero()] * size for _ in range(size)])
    return ConformalModule(basis, actions)


def parse_spec(text: str) -> SpecFile:
    sections = _split_sections(text)
    algebra = None
    algebra_pairs = None
    modules: dict[str, ConformalModule] = {}
    module_sections = []
    for name, lines in sections:
        pairs = _parse_pairs(lines)
        if name == "algebra":
            if algebra is not None:
                raise DuplicateDefinition("more than one algebra section")
            algebra_pairs = pairs
            if "builtin" in pairs:
                algebra = _builtin_algebra(pairs)
            else:
                algebra = _explicit_algebra(pairs)
        elif name.startswith("module"):
            mod_name = name[len("module"):].strip() or "main"
            if mod_name in (m for m, _ in module_sections):
                raise DuplicateDefinition(f"duplicate module section {mod_name!r}")
            module_sections.append((mod_name, pairs))
        else:
            raise InvalidStructure(f"unknown section {name!r}")
    if algebra is None:
        raise InvalidStructure("spec file has no algebra section")
    for mod_name, pairs in module_sections:
        modules[mod_name] = _module_section(pairs, algebra)
    virasoro_gen = 0
    if algebra_pairs and "virasoro_gen" in algebra_pairs:
        lineno, value, _ = algebra_pairs["virasoro_gen"]
        virasoro_gen = _count(value, lineno, "virasoro_gen")
    return SpecFile(algebra, modules, virasoro_gen)
