"""Command-line front end.

Subcommands map one-to-one onto the library: check-algebra, check-module,
annih-check, weights, solve-funceq, verify-prop36, scan-a1, snf.  Exit
codes: 0 all checks passed, 1 a check failed, 2 the spec or arguments were
invalid, 3 a computation needed a table entry beyond the truncation.

--json writes a machine report; identical inputs produce byte-identical
files (keys sorted, no timestamps), which golden tests rely on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from math import ceil, floor

from .algebra import InvalidStructure, TruncationExceeded, check_algebra
from .annihilation import AnnihAlgebra, NonTriangularWindow, check_annih_lie, weight_spaces
from .funceq import (
    FuncEqInstance,
    bcsx_variant_solver,
    solve_intertwiner,
    verify_solution_table,
)
from .grading import scan_grid, default_grid
from .modules import ConformalModule, MissingAction
from .parsing import ParseError, parse_poly, parse_scalar
from .polymatrix import MalformedMatrix, PolyMatrix, matmul, smith_normal_form
from .reports import FAIL, PASS, SKIPPED, Report
from .scalars import Scalar
from .specfile import (
    MAX_GENERATORS,
    DuplicateDefinition,
    SpecFile,
    UnknownGenerator,
    _is_index,
    parse_spec,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SPEC_ERROR = 2
EXIT_TRUNCATION = 3

# Caps on the size arguments, so that a short command line cannot ask for
# an effectively endless run; README.md gives the measured time at each cap.
MAX_ANNIH_DEPTH = 32
# annih-check builds generators * (depth + 1) symbols, and its cost grows
# with the cube of that number; block with truncation 3 at depth 32 is 132
MAX_ANNIH_SYMBOLS = 132
MAX_WEIGHT_DEGREE = 40
MAX_FUNCEQ_DEGREE = 10
MAX_SCAN_HORIZON = 32
MAX_GRID_DENOMINATOR = 12
MAX_GRID_SLOPES = 48
MAX_PROP36_SAMPLES = 16
# the size of check-algebra and check-module, both a Jacobi loop over the
# generator pairs inside the truncation: (D + 2)^5 * z * w * sum (w + t),
# with z the third arguments of a pair (the generators, or the basis
# vectors of the module), w the terms of a bracket with one of them (the
# most terms of a bracket, or the basis size), t the terms of the pair's
# bracket and D the largest degree of a bracket or action entry.  On a
# 2-vCPU VM, time over size is 0.14 to 0.24, 0.16 to 0.27 and 0.23 to
# 0.30 us at degrees 0, 1 and 16 (1.2 to 2.0 us at degree 1 under the
# (D + 1)^5 weight this one replaced), and the slowest shape found near the
# cap took at most 4.2 s, against 4.8 s for the slowest at the old cap of
# 2^22; before any cap, one vector acting by a degree-16 entry on 32
# generators ran past 300 s, and 8 generators bracketing to degree-16
# entries past 120 s.  The size is that of the full pair loop, which a
# table failing skew still runs, so the cap stayed when check_jacobi began
# to compute one defect per unordered triple of a skew table; re-timed,
# the slowest shape found near it, 20 generators failing skew with one
# term of degree 2, took 2.2 to 2.6 s, and skew tables failing Jacobi, which
# pay a substitution per derived failing check, at most 1.1 s
MAX_CHECK_WORK = 2**24
# the Smith form's cost grows with the size, the degree and the coefficient
# height of the input: on a 2-vCPU VM a dense 3x3 cubic with three-digit
# Gaussian parts takes about 0.3 s, and a 4x4 one 10 to 12 s (0.7 to 0.9 s
# and 32 to 40 s before the dense kernel); 4x4 stays out, above 10 s
MAX_SNF_SIZE = 3
MAX_SNF_DEGREE = 3
MAX_SNF_PART = 999


class PathError(Exception):
    """The spec cannot be read, or the --json path cannot be opened for writing."""


def _load_spec(path: str) -> SpecFile:
    # only the read is guarded: a BrokenPipeError on stdout must stay exit 1
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    # ValueError: a NUL in the path, or bytes that are not UTF-8
    except (OSError, ValueError) as exc:
        raise PathError(f"cannot read spec: {exc}") from None
    return parse_spec(text)


def _emit(args, command: str, status: str, report: Report | None, data: dict, counts: dict | None = None) -> None:
    """Write --json, then print the report: a closed stdout cannot lose the file.

    A report comes with the status and counts of its _status_and_counts,
    and its FAIL and skip lines are collected in one pass over its checks.
    """
    if getattr(args, "json", None):
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "status": status,
            "report": report._to_dict(status, counts) if report is not None else None,
            "data": data,
        }
        # only the open is guarded: a BrokenPipeError on stdout must stay exit 1
        try:
            fh = open(args.json, "w", encoding="utf-8")
        # ValueError: a NUL in the path
        except (OSError, ValueError) as exc:
            raise PathError(f"cannot open --json path: {exc}") from None
        with fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if report is not None:
        lines, skips = [report._summary(status, counts)], []
        for item in report.checks:
            if item.status == FAIL:
                lines.append(f"  FAIL {item.check_id}")
                lines.extend(f"       {w}" for w in item.witnesses)
            elif item.status == SKIPPED:
                skips.append(f"  skip {item.check_id}")
        print("\n".join(lines + skips))


def _emit_check(args, command: str, report: Report, data: dict) -> int:
    """_emit a check command's report; the exit code is 1 if a check failed."""
    status, counts = report._status_and_counts()
    _emit(args, command, status, report, data, counts)
    return EXIT_OK if status == PASS else EXIT_CHECK_FAILED


def _module_of(spec: SpecFile, name: str) -> ConformalModule:
    if name not in spec.modules:
        raise InvalidStructure(f"spec has no module {name!r}")
    return spec.modules[name]


def _scalar_arg(text: str) -> Scalar:
    try:
        return parse_scalar(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _refuse_large_check(command: str, A, module=None) -> None:
    """Raise InvalidStructure when the Jacobi loop's size passes MAX_CHECK_WORK.

    The third arguments are the generators of A, or the basis of the module.
    """
    brackets = [A.entry(x, y) for x in range(A.n_gens) for y in range(A.n_gens) if A.has_entry(x, y)]
    entries = [p for bracket in brackets for p in bracket.values()]
    if module is None:
        third, width = A.n_gens, max(map(len, brackets), default=0)
        what = f"bracket width {width}"
    else:
        third = width = module.rank
        entries += [p for matrix in module.actions.values() for row in matrix for p in row]
        what = f"basis size {width}"
    degree = max((p.total_degree() or 0 for p in entries), default=0)
    work = (degree + 2) ** 5 * third * width * sum(width + len(bracket) for bracket in brackets)
    if work > MAX_CHECK_WORK:
        raise InvalidStructure(
            f"{command} on {len(brackets)} generator pairs with {what} and entries "
            f"of degree up to {degree} has size {work}, more than {MAX_CHECK_WORK}"
        )


def _cmd_check_algebra(args) -> int:
    spec = _load_spec(args.spec)
    _refuse_large_check("check-algebra", spec.algebra)
    report = check_algebra(spec.algebra)
    return _emit_check(args, "check-algebra", report, {"generators": list(spec.algebra.gens)})


def _cmd_check_module(args) -> int:
    from .modules import check_module

    spec = _load_spec(args.spec)
    A, module = spec.algebra, _module_of(spec, args.module)
    _refuse_large_check("check-module", A, module)
    report = check_module(A, module)
    return _emit_check(args, "check-module", report, {"module": args.module})


def _cmd_annih_check(args) -> int:
    spec = _load_spec(args.spec)
    symbols = spec.algebra.n_gens * (args.depth + 1)
    if symbols > MAX_ANNIH_SYMBOLS:
        raise InvalidStructure(
            f"annih-check at depth {args.depth} on {spec.algebra.n_gens} generators "
            f"builds {symbols} symbols, more than {MAX_ANNIH_SYMBOLS}"
        )
    X = AnnihAlgebra(spec.algebra, args.depth)
    report = check_annih_lie(X)
    return _emit_check(args, "annih-check", report, {"depth": args.depth})


def _cmd_weights(args) -> int:
    spec = _load_spec(args.spec)
    module = _module_of(spec, args.module)
    gen = args.gen if args.gen is not None else spec.virasoro_gen
    if gen >= spec.algebra.n_gens:
        raise InvalidStructure(
            f"argument --gen: generator {gen} is past the algebra, "
            f"whose {spec.algebra.n_gens} generators are 0 to {spec.algebra.n_gens - 1}"
        )
    reports = weight_spaces(module, args.degree, virasoro_gen=gen)
    data = {
        "degree_bound": args.degree,
        "virasoro_gen": gen,
        "weights": [
            {
                "weight": str(w.weight),
                "dim": w.dim,
                "vectors": [module.render_element(list(v)) for v in w.vectors],
            }
            for w in reports
        ],
    }
    _emit(args, "weights", "pass", None, data)
    for w in reports:
        print(f"weight {w.weight}: dim {w.dim}")
    return EXIT_OK


def _cmd_solve_funceq(args) -> int:
    inst = FuncEqInstance(
        args.a, args.b, args.delta_i, args.c_i, args.delta_j, args.c_j,
        args.degree_bound, args.homogeneous,
    )
    basis = bcsx_variant_solver(inst) if args.variant else solve_intertwiner(inst)
    data = {
        "dimension": basis.dimension,
        "basis": [p.render() for p in basis.basis],
        "parameters": {
            "a": str(args.a), "b": str(args.b),
            "delta_i": str(args.delta_i), "c_i": str(args.c_i),
            "delta_j": str(args.delta_j), "c_j": str(args.c_j),
            "degree_bound": args.degree_bound,
            "homogeneous": args.homogeneous,
            "variant": bool(args.variant),
        },
    }
    _emit(args, "solve-funceq", "pass", None, data)
    for p in basis.basis:
        print(p.render())
    print(f"dimension {basis.dimension}")
    return EXIT_OK


def _cmd_verify_prop36(args) -> int:
    kwargs = {}
    if args.a_samples is not None:
        kwargs["a_samples"] = args.a_samples
    if args.delta_samples is not None:
        kwargs["delta_samples"] = args.delta_samples
    result = verify_solution_table(**kwargs)
    rows = [
        {
            "row": rv.row_id,
            "a": str(rv.a),
            "delta_i": str(rv.delta_i),
            "delta_j": str(rv.delta_j),
            "k": rv.k,
            "stated_solves": rv.stated_solves,
            "dimension": rv.dimension,
            "expected_dimension": 1,
            "matches_table": rv.matches_table,
            "perturbed_dimensions": list(rv.perturbed_dimensions),
        }
        for rv in result.rows
    ]
    return _emit_check(args, "verify-prop36", result.report, {"rows": rows})


def _capped_int(cap: int, least: int = 0):
    """An argparse type: an integer from least to the cap in the ASCII digits 0-9."""

    def parse(text: str) -> int:
        if not _is_index(text) or not least <= int(text) <= cap:
            raise argparse.ArgumentTypeError(
                f"expected an integer from {least} to {cap} in the ASCII digits 0-9, got {text!r}"
            )
        return int(text)

    return parse


def _bound_arg(text: str) -> Fraction:
    if not text.isascii():
        raise argparse.ArgumentTypeError(f"grid bound must be written in ASCII, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"grid bound is not a fraction: {text!r}") from None


def _parse_grid(text: str) -> list[Scalar]:
    """The --grid value: comma-separated scalars, or denN[:lo:hi]; never empty.

    A repeated slope (3/2 and 6/4 are one) is kept once, where it first
    occurs, so no slope is scanned twice; the cap counts every value.
    """
    too_many = f"grid {text!r} holds more than {MAX_GRID_SLOPES} slopes"
    if text.startswith("den"):
        parts = text.split(":")
        size = parts[0][3:]
        if not _is_index(size) or int(size) > MAX_GRID_DENOMINATOR or len(parts) > 3:
            raise argparse.ArgumentTypeError(
                f"expected denN[:lo:hi] with N at most {MAX_GRID_DENOMINATOR} "
                f"in the ASCII digits 0-9, got {text!r}"
            )
        n = int(size)
        lo = _bound_arg(parts[1]) if len(parts) > 1 else Fraction(1)
        hi = _bound_arg(parts[2]) if len(parts) > 2 else Fraction(2)
        # the slopes k/N are distinct, so a wide [lo, hi] is refused before
        # the grid is enumerated
        if floor(hi * n) - ceil(lo * n) + 1 > MAX_GRID_SLOPES:
            raise argparse.ArgumentTypeError(too_many)
        grid = default_grid(n, lo, hi)
    else:
        grid = [_scalar_arg(x) for x in text.split(",")]
    if not grid:
        raise argparse.ArgumentTypeError(f"grid {text!r} holds no slope")
    if len(grid) > MAX_GRID_SLOPES:
        raise argparse.ArgumentTypeError(too_many)
    return list(dict.fromkeys(grid))


def _samples_arg(text: str) -> tuple[Scalar, ...]:
    """A --a-samples or --delta-samples value: comma-separated scalars, at most the cap.

    A repeated value (3 and 6/2 are one) is kept once, where it first
    occurs, so no instance is verified twice; the cap counts every value.
    """
    parts = text.split(",")
    if len(parts) > MAX_PROP36_SAMPLES:
        raise argparse.ArgumentTypeError(f"{text!r} holds more than {MAX_PROP36_SAMPLES} samples")
    return tuple(dict.fromkeys(_scalar_arg(x) for x in parts))


def _cmd_scan_a1(args) -> int:
    results = scan_grid(args.grid, args.horizon)
    data = {"horizon": args.horizon, "results": [r.to_dict() for r in results]}
    _emit(args, "scan-a1", "pass", None, data)
    for r in results:
        mark = "admissible" if r.admissible else "rejected"
        print(f"a1 = {r.a1}: {mark}")
    return EXIT_OK


def _matrix_arg(text: str) -> list[list]:
    """The --matrix value: rows split by ';', entries by ','; sizes and coefficients capped."""
    rows = [chunk.split(",") for chunk in text.split(";")]
    if len(rows) > MAX_SNF_SIZE or any(len(row) > MAX_SNF_SIZE for row in rows):
        raise argparse.ArgumentTypeError(f"a matrix has at most {MAX_SNF_SIZE} rows and columns")
    try:
        rows = [[parse_poly(cell.strip()) for cell in row] for row in rows]
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    entries = [p for row in rows for p in row]
    if any((p.degree_in("d") or 0) > MAX_SNF_DEGREE for p in entries):
        raise argparse.ArgumentTypeError(f"an entry has degree in d above {MAX_SNF_DEGREE}")
    parts = [x for p in entries for c in p.terms.values() for x in (c.re, c.im)]
    if any(max(abs(x.numerator), x.denominator) > MAX_SNF_PART for x in parts):
        raise argparse.ArgumentTypeError(
            "a coefficient has a real or imaginary part whose numerator or denominator "
            f"exceeds {MAX_SNF_PART}"
        )
    return rows


def _cmd_snf(args) -> int:
    matrix = PolyMatrix(args.matrix)
    snf = smith_normal_form(matrix)
    free_rank, torsion = snf.torsion_split()
    product = matmul(matmul(snf.U, matrix), snf.V)
    exact = product == snf.D
    data = {
        "D": snf.D.render(),
        "U": snf.U.render(),
        "V": snf.V.render(),
        "product_matches": exact,
        "free_rank": free_rank,
        "torsion_invariants": [p.render() for p in torsion],
    }
    _emit(args, "snf", "pass" if exact else "fail", None, data)
    print("D =", snf.D.render())
    print("U =", snf.U.render())
    print("V =", snf.V.render())
    print(f"free rank {free_rank}; torsion invariants: "
          + (", ".join(p.render() for p in torsion) or "none"))
    return EXIT_OK if exact else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieconformal",
        description="exact checks and solvers for Lie conformal algebra structure tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", help="write a machine-readable report to this path")

    p = sub.add_parser("check-algebra", help="skew-symmetry and Jacobi checks")
    p.add_argument("spec")
    add_json(p)
    p.set_defaults(func=_cmd_check_algebra)

    p = sub.add_parser("check-module", help="module axiom checks")
    p.add_argument("spec")
    p.add_argument("--module", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_check_module)

    p = sub.add_parser("annih-check", help="annihilation Lie algebra consistency")
    p.add_argument("spec")
    p.add_argument("--depth", type=_capped_int(MAX_ANNIH_DEPTH), required=True,
                   help=f"largest annihilation index, at most {MAX_ANNIH_DEPTH}")
    add_json(p)
    p.set_defaults(func=_cmd_annih_check)

    p = sub.add_parser("weights", help="weight spaces of the index-1 action")
    p.add_argument("spec")
    p.add_argument("--module", required=True)
    p.add_argument("--degree", type=_capped_int(MAX_WEIGHT_DEGREE), required=True,
                   help=f"largest d-degree in the window, at most {MAX_WEIGHT_DEGREE}")
    p.add_argument("--gen", type=_capped_int(MAX_GENERATORS - 1), default=None,
                   help="index of the generator whose index-1 action is decomposed, "
                        f"at most {MAX_GENERATORS - 1}; the spec's virasoro_gen by default")
    add_json(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("solve-funceq", help="solve the intertwiner functional equation")
    p.add_argument("--a", type=_scalar_arg, required=True)
    p.add_argument("--b", type=_scalar_arg, default=Scalar(0))
    p.add_argument("--delta-i", type=_scalar_arg, required=True)
    p.add_argument("--c-i", type=_scalar_arg, default=Scalar(0))
    p.add_argument("--delta-j", type=_scalar_arg, required=True)
    p.add_argument("--c-j", type=_scalar_arg, default=Scalar(0))
    p.add_argument("--degree-bound", type=_capped_int(MAX_FUNCEQ_DEGREE), required=True,
                   help=f"largest total degree of f, at most {MAX_FUNCEQ_DEGREE}")
    p.add_argument("--homogeneous", type=_capped_int(MAX_FUNCEQ_DEGREE), default=None,
                   help=f"solve in this total degree only, at most {MAX_FUNCEQ_DEGREE}")
    p.add_argument("--variant", action="store_true",
                   help="solve the shifted-by-m orientation instead")
    add_json(p)
    p.set_defaults(func=_cmd_solve_funceq)

    p = sub.add_parser("verify-prop36", help="verify the homogeneous solution table")
    p.add_argument("--a-samples", type=_samples_arg, default=None,
                   help=f"comma-separated values of a, at most {MAX_PROP36_SAMPLES}")
    p.add_argument("--delta-samples", type=_samples_arg, default=None,
                   help=f"comma-separated values of delta_i, at most {MAX_PROP36_SAMPLES}")
    add_json(p)
    p.set_defaults(func=_cmd_verify_prop36)

    p = sub.add_parser("scan-a1", help="admissibility scan for the grade-one slope")
    p.add_argument("--grid", type=_parse_grid, required=True,
                   help="comma-separated scalars, or denN[:lo:hi] for all "
                        f"denominators up to N in [lo, hi]; N at most {MAX_GRID_DENOMINATOR}, "
                        f"at most {MAX_GRID_SLOPES} slopes")
    p.add_argument("--horizon", type=_capped_int(MAX_SCAN_HORIZON, least=2), required=True,
                   help=f"largest grade of the search, from 2 to {MAX_SCAN_HORIZON}")
    add_json(p)
    p.set_defaults(func=_cmd_scan_a1)

    p = sub.add_parser("snf", help="Smith normal form of a matrix over d-polynomials")
    p.add_argument("--matrix", type=_matrix_arg, required=True,
                   help='rows split by ";", entries by ","; e.g. "d,1;0,d"; '
                        f"at most {MAX_SNF_SIZE} rows and columns, degree in d at most "
                        f"{MAX_SNF_DEGREE}, and coefficient parts p/q with |p| and q at most "
                        f"{MAX_SNF_PART}")
    add_json(p)
    p.set_defaults(func=_cmd_snf)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # solve-funceq solves in one degree, which must be within the bound
        if getattr(args, "homogeneous", None) is not None and args.homogeneous > args.degree_bound:
            parser.error(
                f"argument --homogeneous: degree {args.homogeneous} is past "
                f"--degree-bound {args.degree_bound}"
            )
    except SystemExit as exc:
        return EXIT_SPEC_ERROR if exc.code not in (0, None) else 0
    started = time.monotonic()
    try:
        code = args.func(args)
    except (ParseError, InvalidStructure, UnknownGenerator, DuplicateDefinition,
            MissingAction, PathError, NonTriangularWindow, MalformedMatrix) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except TruncationExceeded as exc:
        print(f"error: truncation insufficient: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    print(f"elapsed: {time.monotonic() - started:.3f}s")
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; Python flushes it again at exit,
        # so point it at devnull first (the idiom of the signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
