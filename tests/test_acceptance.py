"""Acceptance suite: one test per stated criterion, each printing a
pass/fail line.  Everything is exact; there are no tolerances anywhere."""

import random
from fractions import Fraction

import lieconformal as lc
from lieconformal import cli
from lieconformal.funceq import TABLE_ROWS
from lieconformal.poly import D, L, MultiPoly
from lieconformal.scalars import ONE, Scalar, ZERO, sc
from test_annihilation import reconstruct_lambda_action
from test_funceq import _STATED_SOLUTIONS, _proportional


def _report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name})"


def _skew(p):
    return -p.substitute("l", -L - D)


def test_criterion_01_axiom_suite():
    ok = True
    algebras = [lc.virasoro()]
    sl2, labels = lc.sl2_constants()
    algebras.append(lc.current(sl2, labels))
    algebras.append(lc.vir_semidirect_current(1, sl2, labels))
    for p in (1, 2, sc("1/2")):
        algebras.append(lc.block(p, 8))
    algebras.append(lc.map_virasoro_poly(9))
    for A in algebras:
        ok = ok and lc.check_skew(A).passed and lc.check_jacobi(A).passed
    bad_c, bad_labels = lc.nonabelian2_constants()
    bad = lc.vir_semidirect_current(0, bad_c, bad_labels)
    rep = lc.check_jacobi(bad)
    ok = ok and not rep.passed
    ok = ok and any(item.witnesses for item in rep.failures)
    _report(1, "axiom suite", ok)


def test_criterion_02_solution_table():
    result = lc.verify_solution_table()
    ok = result.report.passed
    by_row: dict = {}
    for rv in result.rows:
        by_row.setdefault(rv.row_id, []).append(rv)
        ok = ok and rv.dimension == 1 and rv.matches_table and rv.stated_solves
        ok = ok and len(rv.perturbed_dimensions) >= 5
        ok = ok and all(dim == 0 for dim in rv.perturbed_dimensions)
        ok = ok and not rv.delta_i.is_zero()
    ok = ok and set(by_row) == {row.row_id for row in TABLE_ROWS}
    # five samples per free parameter: the unpinned rows carry >= 5 instances
    for row in TABLE_ROWS:
        if row.delta_i_of is None:
            ok = ok and len(by_row[row.row_id]) >= 5
        # each row's solution, derived from Lemma C, is the paper's formula
        for a, di, _, solution in row.instances(*lc.verify_solution_table.__defaults__):
            ok = ok and not solution.is_zero()
            ok = ok and _proportional(solution, _STATED_SOLUTIONS[row.row_id](a, di))
    _report(2, "homogeneous solution table", ok)


def test_criterion_03_constraint_derivations():
    ok = True
    rng = random.Random(12)
    count = 0
    while count < 20:
        a = Scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        ci = Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        cj = Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        b = ci - cj + Scalar(rng.choice([1, -1, 2, sc("1/2").re]))
        if b == ci - cj:
            continue
        di = Scalar(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
        dj = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        inst = lc.FuncEqInstance(a, b, di, ci, dj, cj, 6)
        ok = ok and lc.solve_intertwiner(inst).dimension == 0
        count += 1
    # the degree offset holds for every nonzero homogeneous solution found
    solutions_checked = 0
    a_samples = (Scalar(3), sc("1/2"), Scalar(-1), sc("5/2"), sc("7/3"))
    delta_samples = (Scalar(1), Scalar(-2), sc("1/3"), sc("5/2"), Scalar(4))
    for row in TABLE_ROWS:
        for a, di, dj, _ in row.instances(a_samples, delta_samples):
            basis = lc.solve_homogeneous(a, di, dj, row.k)
            for p in basis.basis:
                ok = ok and lc.degree_offset(p, a, di, dj).passed
                solutions_checked += 1
    # one solution for each of the 72 distinct (row, a, delta_i) instances
    ok = ok and solutions_checked == 72
    _report(3, "constraint derivations", ok)


def test_criterion_04_weight_theory():
    ok = True
    for a, b in ((Scalar(2), ZERO), (ONE, Scalar(3)), (sc("1/2"), Scalar(-1))):
        M = lc.rank_one_vir(a, b)
        reports = lc.weight_spaces(M, 5)
        ok = ok and [w.weight for w in reports] == [a + Scalar(k) for k in range(6)]
        ok = ok and all(w.dim == 1 for w in reports)
        for k, w in enumerate(reports):
            vec = w.vectors[0][0]
            expected = (D + MultiPoly.const(b)) ** k
            lead = max(vec.terms, key=lambda key: key[0])
            ok = ok and vec == expected * vec.terms[lead]
    a, b = Scalar(2), ZERO
    line = D + a * L
    zero = MultiPoly.zero()
    M2 = lc.ConformalModule(("v1", "v2"), {0: ((line, zero), (zero, line))})
    reports = lc.weight_spaces(M2, 5)
    ok = ok and all(w.dim == 2 for w in reports)
    ok = ok and max(w.dim for w in reports) == M2.rank
    _report(4, "weight theory", ok)


def test_criterion_05_annihilation():
    ok = True
    X = lc.AnnihAlgebra(lc.virasoro(), 6)
    for m in range(7):
        for n in range(7):
            result_index = m + n - 1
            expected = Scalar(m - n)
            if expected.is_zero():
                ok = ok and lc.annih_bracket(X, (0, m), (0, n)) == {}
                continue
            if not (0 <= result_index <= 6):
                continue  # out of range, covered by the skip accounting
            ok = ok and lc.annih_bracket(X, (0, m), (0, n)) == {(0, result_index): expected}
    ok = ok and lc.check_annih_lie(X).passed
    modules = [lc.rank_one_vir(2, 0), lc.rank_one_vir(1, 3), lc.rank_one_vir(sc("1/2"), -1)]
    V5 = lc.map_virasoro_poly(5)
    modules.append(
        lc.rank_one_theorem_module(V5, "a1=2", sc(1), sc("1/3"),
                                   coeffs=[sc("1/2") ** i for i in range(1, 5)])
    )
    for M in modules:
        gens = range(len(M.actions))
        for g in gens:
            for vec in ([MultiPoly.one()] + [MultiPoly.zero()] * (M.rank - 1),
                        [D ** 2] + [MultiPoly.zero()] * (M.rank - 1)):
                ok = ok and reconstruct_lambda_action(M, g, vec) == lc.apply_action(M, g, vec)
    _report(5, "annihilation algebra", ok)


def test_criterion_06_final_theorem_modules():
    ok = True
    V5 = lc.map_virasoro_poly(5)
    for t in (ZERO, ONE, sc("1/2")):
        M = lc.rank_one_theorem_module(V5, "a1=2", sc(1), sc("1/3"),
                                       coeffs=[t ** i for i in range(1, 5)])
        ok = ok and lc.check_module(V5, M).passed
    table = {
        (0, 0): {0: D + 2 * L},
        (0, 1): {1: D + L},
        (1, 0): {1: _skew(D + L)},
    }
    A = lc.ConformalAlgebra(("L0", "L1"), table, grades={0: 0, 1: 1}, truncation=1)
    for gamma in (ZERO, Scalar(3)):
        M = lc.rank_one_theorem_module(A, "a1!=2", sc(1), sc("2/7"), gamma=gamma)
        ok = ok and lc.check_module(A, M).passed
    unit_module = lc.rank_one_theorem_module(V5, "a1=2", sc(1), ZERO, coeffs=[ONE] * 4)
    ker = lc.action_kernel(V5, unit_module)
    for k in range(1, 5):
        direction = [ZERO] * 5
        direction[0] = Scalar(-1)
        direction[k] = ONE
        ok = ok and ker.contains_direction(direction)
    _report(6, "final-theorem modules", ok)


def test_criterion_07_grading_suite():
    ok = True
    for A in (lc.block(1, 8), lc.map_virasoro_poly(9)):
        _, _, rep = lc.split_I0_I1(A)
        ok = ok and rep.passed
        ok = ok and lc.check_b_linear(A).passed
        profile = lc.profile_from_table(A)  # raises if either invariant fails
        for (i, j), deg in profile.deg_choices.items():
            if deg is None:
                continue
            if i in profile.a_seq and j in profile.a_seq and i + j in profile.a_seq:
                expected = profile.a_seq[i] + profile.a_seq[j] - profile.a_seq[i + j] - ONE
                ok = ok and Scalar(deg) == expected
    _report(7, "grading suite", ok)


def test_criterion_08_admissibility_scan():
    """The scan on the denominator-six grid, checked against the slope list.

    The list {2} u {2 - 1/p} u {2 - 2/q, q odd} is a necessary condition
    from a non-constructive argument: a slope outside it is never
    admissible, but a slope inside it need not be admitted.  scan_a1
    admits a slope only when it builds a witness at the horizon: vanishing
    constant terms, at most horizon/2 distinct values among a_1..a_h, and
    every skew and Jacobi check passing.  So the criterion asserts the
    direction the list supports: every admitted slope is on the list (7/6,
    6/5, 5/4 and 7/5 stay rejected), 5/4 is rejected, 2 is admitted, and
    each admitted slope's witness table passes both axiom checks.

    The list slopes 3/2 and 4/3 are rejected by the scan's bound on
    distinct values, not for want of a table: block(-2) and block(-3/2)
    pass both axiom checks with normalized a_1 = 3/2 and 4/3, and each
    carries more than horizon/2 distinct values a_i.
    """
    horizon = 12
    grid = lc.default_grid()
    expected: set = {str(Scalar(2))}
    for p in range(1, 7):
        expected.add(str(Scalar(2) - Scalar(Fraction(1, p))))
    for q in range(1, 12, 2):
        expected.add(str(Scalar(2) - Scalar(Fraction(2, q))))
    grid_names = {str(v) for v in grid}
    expected &= grid_names

    scans = {str(r.a1): r for r in lc.scan_grid(grid, horizon)}
    results = {name: r.admissible for name, r in scans.items()}
    admissible = {name for name, flag in results.items() if flag}

    ok = admissible <= expected
    ok = ok and results["5/4"] is False and results["2"] is True
    for name in sorted(admissible):
        W = lc.assemble_witness_algebra(scans[name])
        ok = ok and lc.check_skew(W).passed and lc.check_jacobi(W).passed

    # the list slopes 3/2 and 4/3 have tables outside the scan's bound
    for p, slope in (("-2", "3/2"), ("-3/2", "4/3")):
        B = lc.block(sc(p), horizon)
        ok = ok and lc.check_skew(B).passed and lc.check_jacobi(B).passed
        u = B.entry(0, 0)[0].coeff_of("d", 1).constant_value()
        ok = ok and B.entry(0, 0)[0] == (D + 2 * L) * u
        a_seq = {}
        for i in range(1, horizon + 1):
            normalized = B.entry(0, i)[i] * (ONE / u)
            a_seq[i] = normalized.coeff_of("l", 1).constant_value()
            ok = ok and normalized == D + a_seq[i] * L
        ok = ok and a_seq[1] == sc(slope)
        ok = ok and 2 * len(set(a_seq.values())) > horizon
    _report(8, "admissibility scan", ok)


def test_criterion_09_smith_normal_form():
    ok = True
    rng = random.Random(20260810)
    from lieconformal.polymatrix import PolyMatrix, determinant, matmul
    from lieconformal.poly import divmod_univar

    for _ in range(100):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = []
        for _ in range(n):
            row = []
            for _ in range(m):
                terms = {}
                for deg in range(rng.randint(0, 3) + 1):
                    c = rng.randint(-3, 3)
                    if c:
                        terms[(deg, 0, 0)] = Scalar(c)
                row.append(MultiPoly(terms))
            rows.append(row)
        Mx = PolyMatrix(rows)
        snf = lc.smith_normal_form(Mx)
        ok = ok and matmul(matmul(snf.U, Mx), snf.V) == snf.D
        for T in (snf.U, snf.V):
            det = determinant(T).constant_value()
            ok = ok and det is not None and not det.is_zero()
        invs = snf.invariants
        for a, b in zip(invs, invs[1:]):
            if b.is_zero():
                continue
            ok = ok and not a.is_zero()
            _, rem = divmod_univar(b, a)
            ok = ok and rem.is_zero()
    free_rank, torsion = lc.torsion_split(
        PolyMatrix([[D, MultiPoly.one()], [MultiPoly.zero(), D]])
    )
    ok = ok and free_rank == 0 and torsion == [D * D]
    _report(9, "smith normal form", ok)


CLI_SPEC = """
[algebra]
builtin = block
p = 1
truncation = 8

[module M]
basis = v
action_0 = d + l + 1/3
action_1 = 1
action_2 = 0
action_3 = 0
action_4 = 0
action_5 = 0
action_6 = 0
action_7 = 0
action_8 = 0
"""


def test_criterion_10_cli_determinism(tmp_path):
    spec = tmp_path / "suite.lca"
    spec.write_text(CLI_SPEC)
    vir = tmp_path / "vir.lca"
    vir.write_text("[algebra]\ngenerators = L\ngrades = 0\np_00 = d + 2*l\n"
                   "\n[module M]\nbasis = v\naction_0 = d + 2*l\n")
    suite = [
        ["check-algebra", str(spec)],
        ["check-module", str(vir), "--module", "M"],
        ["annih-check", str(vir), "--depth", "5"],
        ["weights", str(vir), "--module", "M", "--degree", "4"],
        ["solve-funceq", "--a", "2", "--delta-i", "5", "--c-i", "7",
         "--delta-j", "5", "--c-j", "7", "--degree-bound", "2"],
        ["verify-prop36"],
        ["scan-a1", "--grid", "den6:1:2", "--horizon", "12"],
        ["snf", "--matrix", "d,1;0,d"],
    ]
    digests = []
    for run_index in range(2):
        blobs = []
        for i, command in enumerate(suite):
            out = tmp_path / f"run{run_index}_{i}.json"
            code = cli.run([*command, "--json", str(out)])
            assert code in (0, 1)
            blobs.append(out.read_bytes())
        digests.append(blobs)
    ok = digests[0] == digests[1]
    _report(10, "cli determinism", ok)
