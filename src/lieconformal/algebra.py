"""Lie conformal algebras as polynomial structure tables.

An algebra is a finite list of generators g_0..g_{n-1} that are free module
generators over the polynomial operator d, together with a table entry for
every ordered generator pair:

    [g_i _l g_j] = sum_k  p_{i,j,k}(d, l) * g_k

Both orders (i, j) and (j, i) are stored; skew-symmetry is a checked axiom,
never an assumption.  Infinite graded families are materialized up to a
truncation grade: a pair whose grade sum exceeds the truncation has no
entry at all, and every check that would need it reports "skipped" rather
than passing silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .linalg import nullspace
from .poly import D, L, M, MultiPoly, _add_products, _add_scaled, _raw, _reduce_sums
from .reports import Report, _render_sum
from .scalars import ONE, Scalar, ZERO


class TruncationExceeded(Exception):
    """A required structure-table entry lies beyond the truncation grade."""


class InvalidStructure(ValueError):
    """Constructor input violates its structural preconditions."""


def _require_distinct(names: tuple[str, ...], what: str) -> None:
    """Refuse a repeated name: every rendered witness names its lines, so two alike would read as one."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise InvalidStructure(f"{what} {name!r} is named twice")
        seen.add(name)


TableEntry = dict[int, MultiPoly]
Table = dict[tuple[int, int], TableEntry]


@dataclass(frozen=True)
class AlgebraElement:
    """Finitely supported combination  sum_i f_i(d) * g_i."""

    coords: dict[int, MultiPoly]

    def __post_init__(self):
        clean = {}
        for i, f in self.coords.items():
            if not isinstance(f, MultiPoly):
                f = MultiPoly.const(f)
            if not f.uses_only(("d",)):
                raise InvalidStructure("element coordinates must be polynomials in d only")
            if not f.is_zero():
                clean[i] = f
        object.__setattr__(self, "coords", clean)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        coords = dict(self.coords)
        for i, f in other.coords.items():
            coords[i] = coords[i] + f if i in coords else f
        return AlgebraElement(coords)

    def __mul__(self, factor) -> "AlgebraElement":
        return AlgebraElement({i: f * factor for i, f in self.coords.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "AlgebraElement":
        return self * Scalar(-1)

    def is_zero(self) -> bool:
        return not self.coords

    def render(self, gens: tuple[str, ...]) -> str:
        return _render_sum((f, gens[i]) for i, f in sorted(self.coords.items()))


class ConformalAlgebra:
    """Immutable structure table with optional grading and truncation."""

    def __init__(
        self,
        gens: tuple[str, ...] | list[str],
        table: Table,
        grades: dict[int, int] | None = None,
        truncation: int | None = None,
    ):
        self.gens = tuple(gens)
        self.grades = dict(grades) if grades is not None else None
        self.truncation = truncation
        n = len(self.gens)
        _require_distinct(self.gens, "generator")
        if self.grades is not None:
            if set(self.grades) != set(range(n)):
                raise InvalidStructure("grading must assign a grade to every generator")
            if len(set(self.grades.values())) != n:
                raise InvalidStructure("grading must be one generator per grade")
            if any(g < 0 for g in self.grades.values()):
                raise InvalidStructure("grades must be nonnegative")
        clean: Table = {}
        for (i, j), entry in table.items():
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidStructure(f"table entry ({i},{j}) references unknown generators")
            if self._beyond_truncation(i, j):
                raise InvalidStructure(
                    f"table entry ({i},{j}) lies beyond the truncation grade"
                )
            vec: TableEntry = {}
            for k, p in entry.items():
                if not p.uses_only(("d", "l")):
                    raise InvalidStructure("table entries must be polynomials in d, l")
                if p.is_zero():
                    continue
                if self.grades is not None and self.grades[k] != self.grades[i] + self.grades[j]:
                    raise InvalidStructure(
                        f"graded entry ({i},{j}) must be supported on grade "
                        f"{self.grades[i] + self.grades[j]}"
                    )
                vec[k] = p
            clean[(i, j)] = vec
        self.table = clean
        # _skew_defect's results by pair: the table never changes, so each
        # pair is compared once, however many checks ask
        self._skew_defects: dict[tuple[int, int], dict[int, MultiPoly]] = {}

    # -- table access ------------------------------------------------------

    def _beyond_truncation(self, i: int, j: int) -> bool:
        if self.truncation is None or self.grades is None:
            return False
        return self.grades[i] + self.grades[j] > self.truncation

    def has_entry(self, i: int, j: int) -> bool:
        return not self._beyond_truncation(i, j)

    def entry(self, i: int, j: int) -> TableEntry:
        """The bracket [g_i _l g_j] as a generator-indexed vector.

        An unset pair inside the truncation is the zero bracket; a pair
        beyond the truncation is unknown and raises TruncationExceeded.
        """
        if self._beyond_truncation(i, j):
            raise TruncationExceeded(f"bracket ({i},{j}) beyond truncation {self.truncation}")
        return self.table.get((i, j), {})

    @property
    def n_gens(self) -> int:
        return len(self.gens)

    def gen(self, i: int) -> AlgebraElement:
        return AlgebraElement({i: MultiPoly.one()})

    def element(self, coords: dict[int, MultiPoly]) -> AlgebraElement:
        return AlgebraElement(coords)

    def render_vector(self, vec: dict[int, MultiPoly]) -> str:
        return _render_sum((p, self.gens[k]) for k, p in sorted(vec.items()))


# ---------------------------------------------------------------------------
# the lambda-bracket kernel: algebras, modules and annihilation algebras all
# evaluate brackets here, and a bracket, like a Jacobi defect, adds each
# product into its component's unreduced sums (poly._add_products) and
# reduces each component once (poly._reduce_sums)


_NEG_L = -L
_D_PLUS_L = D + L


def lambda_bracket(entry, x: dict[int, MultiPoly], y: dict[int, MultiPoly]) -> dict[int, MultiPoly]:
    """[x _l y] = sum_{i,j} f_i(-l) g_j(d+l) entry(i, j) for x = {i: f_i(d)}, y = {j: g_j(d)}.

    This is sesquilinearity (D'Andrea and Kac 1998).  entry(i, j) is
    [e_i _l e_j] as an index-keyed vector, as in jacobi_defect; for a
    module the e_j are its basis vectors and the bracket is the action.
    Every entry named by a pair of coordinates is read, zero ones too, so
    an unknown entry raises whatever the coordinates are.
    """
    acc: dict[int, dict] = {}
    y_shift = {j: g.substitute("d", _D_PLUS_L) for j, g in y.items()}
    for i, f in x.items():
        f_shift = f.substitute("d", _NEG_L)
        for j, g_shift in y_shift.items():
            factor = (f_shift * g_shift).terms
            for k, p in entry(i, j).items():
                _add_products(acc.setdefault(k, {}), factor, p.terms)
    return {k: _raw(terms) for k, sums in acc.items() if (terms := _reduce_sums(sums))}


def nth_product(vec: dict[int, MultiPoly], n: int) -> dict[int, MultiPoly]:
    """The n-th product of a bracket: n! times the l^n coefficient of each component, zeros dropped."""
    fact = Scalar(factorial(n))
    out = {k: p.coeff_of("l", n) * fact for k, p in vec.items()}
    return {k: p for k, p in out.items() if not p.is_zero()}


def bracket(A: ConformalAlgebra, x: AlgebraElement, y: AlgebraElement) -> dict[int, MultiPoly]:
    """[x _l y] extended bilinearly: [f(d)g_i _l g(d)g_j] = f(-l) g(d+l) [g_i _l g_j]."""
    return lambda_bracket(A.entry, x.coords, y.coords)


def jth_product(A: ConformalAlgebra, x: AlgebraElement, y: AlgebraElement, j: int) -> AlgebraElement:
    """j-th product: j! times the l^j coefficient of the bracket."""
    if j < 0:
        raise ValueError("product index must be nonnegative")
    return AlgebraElement(nth_product(bracket(A, x, y), j))


# ---------------------------------------------------------------------------
# axiom checks


def skew_image(p: MultiPoly) -> MultiPoly:
    """-p(d, -l-d): the bracket [b _l a] that skew-symmetry forces from p = [a _l b]."""
    return -p.substitute("l", -L - D)


_D_PLUS_M = D + M
_L_PLUS_M = L + M
_NEG_LM = -L - M


# The five substituted images of a table entry that the Jacobi expansion
# multiplies by, each named by the point it evaluates at.
def _at_d_plus_l_m(q: MultiPoly) -> MultiPoly:
    return q.substitute("l", M).substitute("d", _D_PLUS_L)


def _neg_at_neg_l_minus_m(r: MultiPoly) -> MultiPoly:
    return -r.substitute("d", _NEG_LM)


def _at_l_plus_m(p: MultiPoly) -> MultiPoly:
    return p.substitute("l", _L_PLUS_M)


def _neg_at_d_plus_m(s: MultiPoly) -> MultiPoly:
    return -s.substitute("d", _D_PLUS_M)


def _at_m(p: MultiPoly) -> MultiPoly:
    return p.substitute("l", M)


# A table has few distinct entries and every triple reads them again; the
# intertwiner solver and the a1 scan read their images here too: the
# scan's divisors, its forced entries at (d, l+m) and its skew images.
# One pass over the benchmark's pool for one seed (seeds 1 to 3) leaves 532
# to 600 images here on the scan workload, 174 to 199 on linear, 920 to
# 1,156 on axioms and 1,100 to 1,152 on gaussian, so this bound holds a
# whole pool.
_IMAGE_CACHE_SIZE = 2048


@lru_cache(maxsize=_IMAGE_CACHE_SIZE)
def _image(p: MultiPoly, at) -> MultiPoly:
    """at(p), shared between calls like poly._power; safe because MultiPoly is immutable."""
    return at(p)


def jacobi_defect(entry, x: int, y: int, z: int) -> dict[int, MultiPoly]:
    """Defect of [g_x _l [g_y _m g_z]] = [[g_x _l g_y] _{l+m} g_z] + [g_y _m [g_x _l g_z]].

    entry(i, j) returns the bracket [g_i _l g_j] as a generator-indexed
    vector.  Indices need not all be generators: check_module passes the
    basis vectors of a module as indices past the last generator, and the
    defect is then the module compatibility defect.  A substituted factor
    is computed only when the bracket it multiplies is nonzero.  Every
    entry the identity needs is still read, so a pair beyond the
    truncation still raises TruncationExceeded.
    """
    return {k: _raw(terms) for k, sums in _jacobi_sums(entry, x, y, z).items() if (terms := _reduce_sums(sums))}


def _jacobi_sums(entry, x: int, y: int, z: int) -> dict[int, dict]:
    """jacobi_defect before its reduce step: each component's unreduced sums (poly._add_products).

    A caller that adds more products to a component before it reduces
    (grading._Scan._recurse_entry) reads the defect's terms here, and
    poly._reduce_sums gives jacobi_defect's coefficients.
    """
    # each product factor * p is added term by term into its component's
    # unreduced sums, never built as a polynomial of its own
    acc: dict[int, dict] = {}
    for w, q in entry(y, z).items():
        outer = entry(x, w)
        if outer:
            factor = _image(q, _at_d_plus_l_m).terms
            for k, p in outer.items():
                _add_products(acc.setdefault(k, {}), factor, p.terms)
    for w, r in entry(x, y).items():
        outer = entry(w, z)
        if outer:
            factor = _image(r, _neg_at_neg_l_minus_m).terms
            for k, p in outer.items():
                _add_products(acc.setdefault(k, {}), factor, _image(p, _at_l_plus_m).terms)
    for w, s in entry(x, z).items():
        outer = entry(y, w)
        if outer:
            factor = _image(s, _neg_at_d_plus_m).terms
            for k, p in outer.items():
                _add_products(acc.setdefault(k, {}), factor, _image(p, _at_m).terms)
    return acc


def _skew_defect(A: ConformalAlgebra, i: int, j: int) -> dict[int, MultiPoly]:
    """p_{i,j} minus the skew image of p_{j,i}, by component; empty iff skew holds on the pair.

    Computed once per pair of A and kept on it; callers only read it.
    """
    out = A._skew_defects.get((i, j))
    if out is not None:
        return out
    left = A.entry(i, j)
    right = A.entry(j, i)
    out = {}
    for k in sorted(set(left) | set(right)):
        p = left.get(k, MultiPoly.zero())
        image = skew_image(right.get(k, MultiPoly.zero()))
        if p != image:
            out[k] = p - image
    A._skew_defects[(i, j)] = out
    return out


def _swap_lm(p: MultiPoly) -> MultiPoly:
    """p(d, m, l)."""
    return MultiPoly({(e_d, e_m, e_l): c for (e_d, e_l, e_m), c in p.terms.items()})


# The two transpositions of a Jacobi defect.  Write J(a, b, c)(d, l, m) for
# [a_l [b_m c]] - [[a_l b]_{l+m} c] - [b_m [a_l c]], p_{a,b,w} for the g_w
# component of [g_a _l g_b] and S(a, b) for _skew_defect, with each w
# running over the support of what it indexes.  For every sesquilinear
# table, skew or not (D'Andrea and Kac 1998, "Structure theory of finite
# conformal algebras"):
#
#   J(x, y, z)(d, l, m) + J(y, x, z)(d, m, l)
#     = -sum_w S(x, y)_w(-l-m, l) [g_w _{l+m} g_z],
#
# as J(y, x, z)(m, l) holds the outer terms of J(x, y, z)(l, m) with signs
# flipped, and the outer bracket sets d = -l-m in [x_l y] + [y_m x]; and,
# Lemma A,
#
#   J(x, y, z) + J(x, z, y)(d, l, -l-m-d)
#     = sum_w S(y, z)_w(d+l, m) [g_x _l g_w]
#       - sum_w p_{x,z,w}(d+m, l) S(y, w)(d, m)
#       - sum_w p_{x,y,w}(-l-m, l) S(w, z)(d, l+m),
#
# as each term of J(x, z, y) is one of J(x, y, z) with one bracket reversed,
# and writing that bracket as its skew image plus its skew defect gives
# the first term by term.  So J(y, x, z) = _swapped_first(J(x, y, z)) where
# skew holds on (x, y), whatever g_z is (a module basis vector too), and
# J(x, z, y) vanishes with J(x, y, z) where skew holds on every pair that
# J(x, y, z) reads, as the pairs of each S in Lemma A are.  _pair_defects,
# the one Jacobi pair loop, derives by both on a skew-symmetric table and
# by the first alone for check_module; by Lemma A it derives only that a
# defect is empty, and computes a failing one.
def _swapped_first(defect: dict[int, MultiPoly]) -> dict[int, MultiPoly]:
    return {k: -_swap_lm(p) for k, p in defect.items()}


def check_skew(A: ConformalAlgebra) -> Report:
    """Skew-symmetry p_{i,j}(d,l) = -p_{j,i}(d,-l-d), entrywise and exact."""
    report = Report("skew-symmetry")
    n = A.n_gens
    for i in range(n):
        for j in range(i, n):
            if not A.has_entry(i, j) or not A.has_entry(j, i):
                report.skip(f"skew({i},{j})", "beyond truncation")
                continue
            defects = _skew_defect(A, i, j)
            if defects:
                report.fail(
                    f"skew({i},{j})",
                    *(_render_sum([(p, A.gens[k])]) for k, p in defects.items()),
                )
            else:
                report.ok(f"skew({i},{j})")
    return report


def _pair_defects(A: ConformalAlgebra, entry, zs, skew: bool = False):
    """Yield (x, y, [jacobi_defect(entry, x, y, z) for z in zs]) per generator pair, row-major.

    The one Jacobi pair loop: check_jacobi runs it on the generators and
    check_module on its basis vectors, the indices n + c.  A defect is None
    where an entry lies beyond the truncation, and each triple derives its
    defect from one that comes earlier and reads the same entries.
    (x, y, z) with x > y derives from (y, x, z) through _swapped_first where
    skew holds on the pair, whatever z indexes.  Where skew holds on every
    pair inside the truncation, check_jacobi passes skew, and (x, y, z)
    with y > z is empty by Lemma A where (x, z, y) is, so a passing orbit
    is computed once, at its sorted triple x <= y <= z; a sorted triple
    with a pair beyond the truncation raises in every ordering and is
    skipped unread.  Where (x, z, y) fails, (x, y, z) is computed by
    jacobi_defect: on entries of high degree Lemma A's substitution
    m -> -l-m-d costs more than the defect.  Lemma A needs z to be a
    generator, so a module leaves skew False.  An empty defect derives as
    empty, so only a failing check pays a swap or a computation.  Every
    defect is kept in one memo for the whole loop: at 32 generators its
    32,768 entries raise check_jacobi's traced peak by about 3 MB
    (tracemalloc, 5.5 to 8.5 MB).
    """
    n = A.n_gens
    # every triple's defect, None beyond the truncation: the one a triple
    # derives from, (y, x, z) or (x, z, y), comes earlier in row-major order
    known: dict[tuple[int, int, int], dict[int, MultiPoly] | None] = {}
    for x in range(n):
        row = [A.has_entry(x, y) for y in range(n)]
        for y in range(n):
            inside = row[y]
            first = x > y and inside and not _skew_defect(A, y, x)
            # a pair's defects are all found before any is rendered: on a
            # 32-generator table that fails skew, alternating the two per
            # triple read 5 to 8 % slower
            defects = []
            for z in zs:
                if first:
                    defect = known[(y, x, z)]
                    if defect:
                        defect = _swapped_first(defect)
                elif skew and y > z and not known[(x, z, y)]:
                    defect = known[(x, z, y)]
                elif not inside or skew and not (row[z] and A.has_entry(y, z)):
                    defect = None
                else:
                    try:
                        defect = jacobi_defect(entry, x, y, z)
                    except TruncationExceeded:
                        defect = None
                known[(x, y, z)] = defect
                defects.append(defect)
            yield x, y, defects


def check_jacobi(A: ConformalAlgebra) -> Report:
    """Jacobi identity on every generator triple; out-of-truncation triples are skipped.

    The checks run in _pair_defects' order.  On a table that fails skew on
    some pair, only the first swap derives, as for a module.
    """
    n = A.n_gens
    skew = not any(_skew_defect(A, i, j) for i in range(n) for j in range(i, n) if A.has_entry(i, j))
    report = Report("jacobi")
    for x, y, defects in _pair_defects(A, A.entry, range(n), skew):
        for z, defect in enumerate(defects):
            check_id = f"jacobi({x},{y},{z})"
            if defect is None:
                report.skip(check_id, "beyond truncation")
            elif defect:
                report.fail(check_id, A.render_vector(defect))
            else:
                report.ok(check_id)
    return report


def check_algebra(A: ConformalAlgebra) -> Report:
    report = Report("algebra axioms")
    report.checks.extend(check_skew(A).checks)
    report.checks.extend(check_jacobi(A).checks)
    return report


# ---------------------------------------------------------------------------
# structure-constant helpers for current-type constructors

StructureConstants = list[list[list[Scalar]]]


def _as_scalar(x) -> Scalar:
    return x if isinstance(x, Scalar) else Scalar(x)


def sl2_constants() -> tuple[StructureConstants, tuple[str, ...]]:
    """sl2 in the basis (e, f, h): [e,f]=h, [h,e]=2e, [h,f]=-2f."""
    n = 3
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    e, f, h = 0, 1, 2
    c[e][f][h] = ONE
    c[f][e][h] = -ONE
    c[h][e][e] = Scalar(2)
    c[e][h][e] = Scalar(-2)
    c[h][f][f] = Scalar(-2)
    c[f][h][f] = Scalar(2)
    return c, ("e", "f", "h")


def abelian_constants(n: int) -> tuple[StructureConstants, tuple[str, ...]]:
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    return c, tuple(f"x{i}" for i in range(n))


def nonabelian2_constants() -> tuple[StructureConstants, tuple[str, ...]]:
    """The 2-dimensional non-abelian Lie algebra: [x, y] = x."""
    c = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
    c[0][1][0] = ONE
    c[1][0][0] = -ONE
    return c, ("x", "y")


def _validate_antisymmetric(c: StructureConstants) -> None:
    n = len(c)
    for i in range(n):
        if len(c[i]) != n or any(len(c[i][j]) != n for j in range(n)):
            raise InvalidStructure("structure constants must form an n x n x n array")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if _as_scalar(c[i][j][k]) != -_as_scalar(c[j][i][k]):
                    raise InvalidStructure("structure constants must be antisymmetric")


# ---------------------------------------------------------------------------
# built-in constructors


def virasoro() -> ConformalAlgebra:
    """Rank one, [L _l L] = (d + 2l) L."""
    return ConformalAlgebra(("L",), {(0, 0): {0: D + 2 * L}})


def _constant_brackets(
    structure: StructureConstants, labels: tuple[str, ...] | None, shift: int
) -> tuple[tuple[str, ...], Table]:
    """The labels (x0, x1, ... by default) and the l-free brackets of the constants, indices shifted."""
    _validate_antisymmetric(structure)
    n = len(structure)
    if labels is None:
        labels = tuple(f"x{i}" for i in range(n))
    table: Table = {}
    for i in range(n):
        for j in range(n):
            table[(i + shift, j + shift)] = {
                k + shift: MultiPoly.const(c)
                for k in range(n)
                if not (c := _as_scalar(structure[i][j][k])).is_zero()
            }
    return labels, table


def current(structure: StructureConstants, labels: tuple[str, ...] | None = None) -> ConformalAlgebra:
    """Current algebra of a Lie algebra given by structure constants: brackets are l-free."""
    return ConformalAlgebra(*_constant_brackets(structure, labels, 0))


def vir_semidirect_current(
    a, structure: StructureConstants, labels: tuple[str, ...] | None = None
) -> ConformalAlgebra:
    """Virasoro acting on a current algebra by [L _l x] = (d + a*l) x."""
    a = _as_scalar(a)
    labels, constants = _constant_brackets(structure, labels, 1)
    table: Table = {(0, 0): {0: D + 2 * L}}
    act = D + a * L
    act_rev = skew_image(act)
    for i in range(1, len(structure) + 1):
        table[(0, i)] = {i: act}
        table[(i, 0)] = {i: act_rev}
    table.update(constants)
    return ConformalAlgebra(("L",) + labels, table)


def block(p, truncation: int) -> ConformalAlgebra:
    """Graded family [L_i _l L_j] = ((i+p)d + (i+j+2p)l) L_{i+j}, cut at the truncation grade."""
    p = _as_scalar(p)
    if p.is_zero():
        raise InvalidStructure("block parameter p must be nonzero")
    if truncation < 0:
        raise InvalidStructure("truncation must be nonnegative")
    n = truncation + 1
    gens = tuple(f"L{i}" for i in range(n))
    table: Table = {}
    for i in range(n):
        for j in range(n):
            if i + j > truncation:
                continue
            coeff_d = Scalar(i) + p
            coeff_l = Scalar(i + j) + 2 * p
            poly = coeff_d * D + coeff_l * L
            table[(i, j)] = {i + j: poly} if not poly.is_zero() else {}
    grades = {i: i for i in range(n)}
    return ConformalAlgebra(gens, table, grades=grades, truncation=truncation)


MultTable = list[list[list[Scalar]]]


def _has_unit(mult: MultTable) -> bool:
    """Is there an e with sum_k e_k (u_k u_i) = u_i for all i?

    With one more unknown t the system reads sum_k e_k (u_k u_i) - t u_i = 0,
    and a unit exists iff some solution has t != 0.
    """
    n = len(mult)
    columns = [
        {(i, coord): _as_scalar(mult[k][i][coord]) for i in range(n) for coord in range(n)}
        for k in range(n)
    ]
    columns.append({(i, i): -ONE for i in range(n)})
    return any(n in vec for vec in nullspace(columns))


def map_virasoro(
    mult: MultTable,
    grades: dict[int, int] | None = None,
    truncation: int | None = None,
) -> ConformalAlgebra:
    """Virasoro tensored with a commutative unital algebra given by its basis products.

    mult[i][j] is the coordinate vector of u_i * u_j.  With grades and a
    truncation this builds the horizon model of an infinite graded family:
    pairs beyond the truncation are left unknown, not set to zero.
    """
    n = len(mult)
    # u_i u_j as sparse coordinates {k: c}, converted once
    prod = [
        [{k: c for k, c in enumerate(map(_as_scalar, mult[i][j])) if not c.is_zero()} for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        for j in range(n):
            if prod[i][j] != prod[j][i]:
                raise InvalidStructure("multiplication table must be commutative")

    def combine(vec, rows):
        # sum_k vec_k rows[k]
        sums: dict[int, tuple] = {}
        for k, ck in vec.items():
            _add_scaled(sums, ck, rows[k])
        return _reduce_sums(sums)

    # (u_i u_j) u_h = u_i (u_j u_h), with u_k u_h read as u_h u_k now that
    # the table is known to be commutative
    for i in range(n):
        for j in range(n):
            for h in range(n):
                if combine(prod[i][j], prod[h]) != combine(prod[j][h], prod[i]):
                    raise InvalidStructure("multiplication table must be associative")
    if not _has_unit(mult):
        raise InvalidStructure("multiplication table must have a unit")
    labels = tuple(f"L{i}" for i in range(n))
    base = D + 2 * L
    table: Table = {}
    for i in range(n):
        for j in range(n):
            if grades is not None and truncation is not None:
                if grades[i] + grades[j] > truncation:
                    continue
            table[(i, j)] = {k: base * c for k, c in prod[i][j].items()}
    return ConformalAlgebra(labels, table, grades=grades, truncation=truncation)


def truncated_polynomial_products(n: int) -> MultTable:
    """Products of 1, T, ..., T^{n-1} with T^i T^j = T^{i+j} (zero once out of range)."""
    mult: MultTable = []
    for i in range(n):
        row = []
        for j in range(n):
            vec = [ZERO] * n
            if i + j < n:
                vec[i + j] = ONE
            row.append(vec)
        mult.append(row)
    return mult


def map_virasoro_poly(n: int) -> ConformalAlgebra:
    """Horizon model of Virasoro tensored with polynomials in T, cut after T^{n-1}.

    Grades are the T-powers and the truncation is n-1, so brackets that
    would land past T^{n-1} are unknown (skipped by checks), matching the
    intended infinite family rather than the nilpotent quotient.
    """
    if n < 1:
        raise InvalidStructure("need at least one generator")
    mult = truncated_polynomial_products(n)
    grades = {i: i for i in range(n)}
    return map_virasoro(mult, grades=grades, truncation=n - 1)
