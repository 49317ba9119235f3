"""Seeded jobs for the benchmark workloads, and their known answers.

A workload is a sequence of rounds.  Every round of a workload has the same
shape (the same job kinds at the same sizes) and draws its values from the
seed, so two seeds do the same kind and amount of work on different
inputs.  Inputs are built at set-up; a job's timed call is one library
entry point that returns a verdict, and its check compares that verdict
with a closed form from `ref`, outside the timed call.

Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call a job makes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from lieconformal import algebra, annihilation, funceq, grading, modules, polymatrix, specfile
from lieconformal.algebra import ConformalAlgebra, block, map_virasoro_poly, sl2_constants, virasoro, vir_semidirect_current
from lieconformal.annihilation import AnnihAlgebra
from lieconformal.grading import default_grid
from lieconformal.modules import rank_one_vir
from lieconformal.poly import MultiPoly
from lieconformal.polymatrix import PolyMatrix
from lieconformal.scalars import Scalar

import ref

# Distinct rounds built at set-up; a run cycles through them.
POOL_ROUNDS = {"scan": 2, "axioms": 8, "linear": 3, "gaussian": 5}


class Mismatch(Exception):
    """A verdict differs from its known answer."""


@dataclass(frozen=True)
class Job:
    kind: str
    params: tuple  # the seeded values, hashable, for the known answer
    inputs: tuple  # library objects handed to the timed call


# -- seeded values ---------------------------------------------------------------


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.choice((1, 2, 3)))


def _value(rng: random.Random, gaussian: bool) -> tuple[Fraction, Fraction]:
    """A nonzero scalar as (re, im); Gaussian values always have im != 0."""
    if not gaussian:
        return _rational(rng), Fraction(0)
    return Fraction(rng.randint(-3, 3), rng.choice((1, 2))), Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))


def _sc(v) -> Scalar:
    return Scalar(v[0], v[1])


def _g(v) -> ref.G:
    return ref.G(v[0], v[1])


def _block_parameter(rng, gaussian):
    p = _value(rng, gaussian)
    if p[1] == 0 and p[0] < 0 and p[0].denominator == 1:
        # a negative integer p zeroes an in-range entry of block(p, N)
        p = (-p[0], p[1])
    return p


# -- scan ------------------------------------------------------------------------


def _scan_round():
    return [("scan", (v.re, h)) for v in default_grid() for h in (8, 10)]


def _scan_inputs(params):
    a1, h = params
    return Scalar(a1), h


def _scan_run(inputs):
    return grading.scan_a1(*inputs)


def _scan_check(params, inputs, result, memo):
    a1, h = params
    if result.a1 != Scalar(a1) or result.horizon != h:
        raise Mismatch("result does not echo its slope and horizon")
    # admissible iff a1 in {1, 2}: pinned at horizons 8, 10 and 12
    if result.admissible != (a1 in (1, 2)):
        raise Mismatch(f"a1={a1} h={h}: admissible={result.admissible}")
    if not result.admissible:
        if result.witness_sequence is not None or not 1 <= result.rejection_depth <= h:
            raise Mismatch("rejection without a depth in range, or with a witness")
        return
    seq = result.witness_sequence
    if len(seq) != h or seq[0] != Scalar(a1) or result.rejection_depth is not None:
        raise Mismatch("witness sequence has the wrong shape")
    key = ("witness", a1, h, tuple(str(x) for x in seq))
    if key not in memo:
        built = grading.assemble_witness_algebra(result)
        if built.n_gens != h + 1:
            raise Mismatch("witness algebra has the wrong size")
        memo[key] = True


# -- axioms: spec text -> parse -> skew, Jacobi, module --------------------------


def _render_spec(A: ConformalAlgebra, action: MultiPoly | None) -> str:
    lines = ["[algebra]", "generators = " + " ".join(A.gens)]
    if A.grades is not None:
        lines.append("grades = " + " ".join(str(A.grades[i]) for i in range(A.n_gens)))
    if A.truncation is not None:
        lines.append(f"truncation = {A.truncation}")
    for (i, j), entry in sorted(A.table.items()):
        for k, p in sorted(entry.items()):
            lines.append(f"p_{i}_{j}_{k} = {p.render()}")
    if action is not None:
        lines += ["", "[module M]", "basis = v", f"action_0 = {action.render()}"]
    return "\n".join(lines) + "\n"


def _corrupt(A: ConformalAlgebra, rng, gaussian) -> ConformalAlgebra:
    """Add one seeded monomial, new to its entry, to one nonzero entry."""
    (i, j) = rng.choice(sorted(key for key, entry in A.table.items() if entry))
    k = rng.choice(sorted(A.table[(i, j)]))
    p = A.table[(i, j)][k]
    keys = [(ed, el, 0) for ed in range(3) for el in range(3 - ed) if (ed, el, 0) not in p.terms]
    mono = MultiPoly({rng.choice(keys): _sc(_value(rng, gaussian))})
    table = {key: dict(entry) for key, entry in A.table.items()}
    table[(i, j)][k] = p + mono
    return ConformalAlgebra(A.gens, table, A.grades, A.truncation)


def _axioms_round(rng, gaussian):
    if gaussian:
        shapes = [("block", 3), ("block", 4), ("block", 5), ("vsc", None), ("vsc", None), ("vir", None), ("vir", None)]
    else:
        shapes = [("block", 2), ("block", 3), ("block", 4), ("block", 5), ("block", 6), ("mvp", 2), ("mvp", 3),
                  ("mvp", 4), ("mvp", 5), ("vsc", "one"), ("vsc", None), ("vsc", None), ("vir", None), ("vir", None),
                  ("vir", None)]
    corrupt = set(rng.sample(range(len(shapes)), len(shapes) // 4))
    jobs = []
    for idx, (family, size) in enumerate(shapes):
        if family == "block":
            values = (_block_parameter(rng, gaussian), size)
        elif family == "mvp":
            values = (size,)
        elif family == "vsc":
            values = (((Fraction(1), Fraction(0)) if size == "one" else _value(rng, gaussian)),)
        else:
            values = (_value(rng, gaussian), _value(rng, gaussian))
        seed = rng.randrange(2**32) if idx in corrupt else None
        jobs.append(("axioms", (family, values, seed, gaussian)))
    return jobs


@lru_cache(maxsize=None)
def _pristine(family, values):
    action = None
    if family == "block":
        A = block(_sc(values[0]), values[1])
    elif family == "mvp":
        A = map_virasoro_poly(values[0])
    elif family == "vsc":
        constants, labels = sl2_constants()
        A = vir_semidirect_current(_sc(values[0]), constants, labels)
    else:
        A = virasoro()
        action = rank_one_vir(_sc(values[0]), _sc(values[1])).actions[0][0][0]
    return A, action


def _axioms_source(params):
    family, values, seed, gaussian = params
    A, action = _pristine(family, values)
    if seed is not None:
        A = _corrupt(A, random.Random(seed), gaussian)
    return A, action


def _axioms_inputs(params):
    A, action = _axioms_source(params)
    return (_render_spec(A, action), A, action)


def _axioms_run(inputs):
    spec = specfile.parse_spec(inputs[0])
    A = spec.algebra
    reports = [algebra.check_skew(A), algebra.check_jacobi(A)]
    reports += [modules.check_module(A, M) for M in spec.modules.values()]
    return spec, reports


def _axioms_check(params, inputs, result, memo):
    family, values, seed, _ = params
    spec, reports = result
    _, source, action = inputs
    A = spec.algebra
    if {key: e for key, e in A.table.items() if e} != {key: e for key, e in source.table.items() if e}:
        raise Mismatch("parsed table differs from the rendered one")
    if action is not None and spec.modules["M"].actions[0][0][0] != action:
        raise Mismatch("parsed module action differs from the rendered one")
    n = A.n_gens
    N = values[-1] if family == "block" else values[0] - 1 if family == "mvp" else None
    skew_skip, jacobi_skip, pair_skip = ref.graded_skips(N, n)
    sizes = [n * (n + 1) // 2, n**3] + [n * n + 4] * len(spec.modules)
    skips = [skew_skip, jacobi_skip] + [pair_skip] * len(spec.modules)
    for rep, size, skip in zip(reports, sizes, skips):
        if len(rep.checks) != size or len(rep.skipped) != skip:
            raise Mismatch(f"{rep.title}: {len(rep.checks)} checks, {len(rep.skipped)} skipped; "
                           f"expected {size} and {skip}")
    # Vir acting on Cur(sl2) by (d + a*l) is a Lie conformal algebra iff a = 1:
    # Jacobi on (L, x, y) leaves (a - 1)*l*[x, y].
    passes = seed is None and not (family == "vsc" and _g(values[0]) != ref.ONE)
    if passes:
        if not all(rep.passed for rep in reports):
            raise Mismatch(f"pristine {family} table fails")
        return
    failures = [c for rep in reports for c in rep.failures]
    if not failures or not all(c.witnesses and all(w.strip() != "0" for w in c.witnesses) for c in failures):
        raise Mismatch(f"{family} table expected to fail with a nonzero witness")
    if seed is None and not reports[0].passed:
        raise Mismatch("skew-symmetry fails on a pristine semidirect table")


# -- linear: weight spaces, Smith form, annihilation, solution table -------------


def _dense_entry(rng, gaussian, degree):
    """A polynomial in d of exactly this degree with every coefficient nonzero.

    Dense entries keep the Smith form's cost steady across seeds; sparse
    random entries made it vary a hundredfold.
    """
    return tuple(
        (e, (Fraction(rng.choice((-3, -2, -1, 1, 2, 3))), Fraction(rng.choice((-2, -1, 1, 2)) if gaussian else 0)))
        for e in range(degree + 1)
    )


def _linear_round(rng, gaussian):
    jobs = []
    # real sizes put the median of a round on a fixed input (virasoro at depth 5)
    for N in (6, 9) if gaussian else (6, 10, 12):
        jobs.append(("weights", (_value(rng, gaussian), _value(rng, gaussian), N)))
    sizes = ((2, 3), (3, 2), (3, 3)) if gaussian else ((2, 3), (3, 2), (3, 3), (4, 2), (4, 3))
    for n, degree in sizes:
        jobs.append(("snf", tuple(tuple(_dense_entry(rng, gaussian, degree) for _ in range(n)) for _ in range(n))))
    if gaussian:
        for depth in (3, 4):
            jobs.append(("annih", ("block", _block_parameter(rng, True), 1, depth)))
        # Gaussian integers: the table's cost grows fast with coefficient height
        samples = tuple(
            tuple((Fraction(rng.randint(-2, 2)), Fraction(rng.choice((-2, -1, 1, 2)))) for _ in range(2))
            for _ in range(2)
        )
        jobs.append(("table", samples))
    else:
        for depth in (3, 4, 5, 6):
            jobs.append(("annih", ("virasoro", None, None, depth)))
        jobs.append(("annih", ("block", _block_parameter(rng, False), 1, 4)))
        jobs.append(("annih", ("sl2", None, None, 3)))
        jobs.append(("table", None))
    return jobs


def _weights_inputs(params):
    a, b, N = params
    return rank_one_vir(_sc(a), _sc(b)), N


def _weights_run(inputs):
    return annihilation.weight_spaces(*inputs)


def _weights_check(params, inputs, result, memo):
    # index-1 action of L on d^t v is (a + t) d^t + t*b*d^(t-1): triangular,
    # so weights a + k, each of dimension one, spanned by (d + b)^k
    a, b, N = params
    if len(result) != N + 1:
        raise Mismatch(f"{len(result)} weights, expected {N + 1}")
    for k, rep in enumerate(result):
        if ref.of_scalar(rep.weight) != _g(a) + ref.G(k):
            raise Mismatch(f"weight {k} is {rep.weight}")
        if rep.dim != 1 or len(rep.vectors[0]) != 1:
            raise Mismatch(f"weight {rep.weight} has dimension {rep.dim}")
        if not ref.proportional(ref.binomial_power(_g(b), k), ref.upoly(rep.vectors[0][0])):
            raise Mismatch(f"weight vector {rep.vectors[0][0]} is not a multiple of (d + b)^{k}")


def _snf_inputs(params):
    return (PolyMatrix([[MultiPoly({(e, 0, 0): Scalar(*c) for e, c in cell}) for cell in row] for row in params]),)


def _snf_run(inputs):
    return polymatrix.smith_normal_form(inputs[0])


def _snf_check(params, inputs, result, memo):
    M = [[{e: ref.G(*c) for e, c in cell} for cell in row] for row in params]
    U, D, V = ([[ref.upoly(p) for p in row] for row in m.rows] for m in (result.U, result.D, result.V))
    if ref.mat_mul(ref.mat_mul(U, M), V) != D:
        raise Mismatch("U * M * V differs from D")
    for name, T in (("U", U), ("V", V)):
        d = ref.det(T)
        if set(d) != {0}:
            raise Mismatch(f"det {name} is not a nonzero constant")
    n = len(M)
    if any(D[r][c] for r in range(n) for c in range(n) if r != c):
        raise Mismatch("D is not diagonal")
    diag = [D[i][i] for i in range(n)]
    nonzero = [p for p in diag if p]
    if diag[: len(nonzero)] != nonzero:
        raise Mismatch("zero invariants precede nonzero ones")
    if any(p[max(p)] != ref.ONE for p in nonzero):
        raise Mismatch("an invariant is not monic")
    if not all(ref.u_divides(a, b) for a, b in zip(nonzero, nonzero[1:])):
        raise Mismatch("invariants do not form a divisibility chain")


def _annih_source(params):
    family, p, N, depth = params
    if family == "virasoro":
        return virasoro(), ref.virasoro_entries()
    if family == "block":
        return block(_sc(p), N), ref.block_entries(_g(p), N)
    constants, labels = sl2_constants()
    return algebra.current(constants, labels), ref.sl2_current_entries()


def _annih_inputs(params):
    return (AnnihAlgebra(_annih_source(params)[0], params[3]),)


def _annih_run(inputs):
    return annihilation.check_annih_lie(inputs[0])


def _annih_check(params, inputs, report, memo):
    A, entries = _annih_source(params)
    depth = params[3]
    key = ("annih", params)
    if key not in memo:
        memo[key] = ref.annih_skips(entries, A.n_gens, depth)
    antisym_skip, jacobi_skip = memo[key]
    s = A.n_gens * (depth + 1)
    if len(report.checks) != s * (s + 1) // 2 + s * (s + 1) * (s + 2) // 6:
        raise Mismatch(f"{len(report.checks)} checks for {s} symbols")
    if len(report.skipped) != antisym_skip + jacobi_skip:
        raise Mismatch(f"{len(report.skipped)} skipped, structure gives {antisym_skip + jacobi_skip}")
    if not report.passed:
        raise Mismatch("annihilation algebra fails its Lie axioms")


# funceq's documented default samples, for the expected row count
_DEFAULT_SAMPLES = (
    ((3, 0), (Fraction(1, 2), 0), (-1, 0), (Fraction(5, 2), 0), (2, 1)),
    ((1, 0), (-2, 0), (Fraction(1, 3), 0), (Fraction(5, 2), 0), (Fraction(-3, 4), 1)),
)


def _table_inputs(params):
    if params is None:
        return ()
    return tuple(tuple(_sc(v) for v in group) for group in params)


def _table_run(inputs):
    return funceq.verify_solution_table(*inputs)


def _table_check(params, inputs, result, memo):
    a_samples, delta_samples = ([_g(v) for v in group] for group in (params or _DEFAULT_SAMPLES))
    expected = ref.solution_table_rows(a_samples, delta_samples)
    if len(result.rows) != expected:
        raise Mismatch(f"{len(result.rows)} table rows verified, expected {expected}")
    if not result.report.passed or not all(row.passed for row in result.rows):
        raise Mismatch("the solution table fails on its samples")


# kind -> (build inputs, timed call, check(params, inputs, result, memo))
KINDS = {
    "scan": (_scan_inputs, _scan_run, _scan_check),
    "axioms": (_axioms_inputs, _axioms_run, _axioms_check),
    "weights": (_weights_inputs, _weights_run, _weights_check),
    "snf": (_snf_inputs, _snf_run, _snf_check),
    "annih": (_annih_inputs, _annih_run, _annih_check),
    "table": (_table_inputs, _table_run, _table_check),
}

_ROUNDS = {
    "scan": lambda rng: _scan_round(),
    "axioms": lambda rng: _axioms_round(rng, False),
    "linear": lambda rng: _linear_round(rng, False),
    "gaussian": lambda rng: _axioms_round(rng, True) + _linear_round(rng, True),
}


def make_rounds(workload: str, seed: int) -> list[list[Job]]:
    """The workload's pool of rounds for this seed, each in seeded order."""
    rounds = []
    for r in range(POOL_ROUNDS[workload]):
        rng = random.Random(f"{workload}:{seed}:{r}")
        shapes = _ROUNDS[workload](rng)
        rng.shuffle(shapes)
        rounds.append([Job(kind, params, KINDS[kind][0](params)) for kind, params in shapes])
    return rounds


def run(job: Job):
    return KINDS[job.kind][1](job.inputs)


def check(job: Job, result, memo: dict) -> None:
    """Raise Mismatch unless the verdict equals the job's known answer."""
    KINDS[job.kind][2](job.params, job.inputs, result, memo)
