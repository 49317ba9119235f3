import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieconformal.funceq import (
    FuncEqInstance,
    NotASolution,
    RowVerification,
    SolutionBasis,
    TABLE_ROWS,
    _PARAMETERS,
    _PERTURBATIONS,
    _affine_part,
    _defect_bcsx,
    _defect_intertwiner,
    _monomials,
    _solve_by_matching,
    _solve_family,
    bcsx_variant_solver,
    degree_offset,
    solve_homogeneous,
    solve_intertwiner,
    verify_solution_table,
)
from lieconformal.grading import _skew_condition
from lieconformal.linalg import nullspace
from lieconformal.parsing import parse_scalar
from lieconformal.poly import D, L, M, MultiPoly, _add_scaled, _reduce_sums
from lieconformal.reports import Report
from lieconformal.scalars import ONE, Scalar, ZERO, sc


def _proportional(p, q):
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    if set(p.terms) != set(q.terms):
        return False
    key = next(iter(p.terms))
    ratio = q.terms[key] / p.terms[key]
    return all(q.terms[k] == c * ratio for k, c in p.terms.items())


def test_adjoint_intertwiner_found():
    inst = FuncEqInstance(Scalar(2), ZERO, Scalar(5), Scalar(7), Scalar(5), Scalar(7), 2)
    basis = solve_intertwiner(inst)
    assert basis.dimension == 1
    assert _proportional(basis.basis[0], D + 5 * L + MultiPoly.const(7))
    # oracle: (l-m)(d + 5(l+m) + 7) equals the right-hand side, expanded
    assert _defect_intertwiner(inst, D + 5 * L + MultiPoly.const(7)).is_zero()


def _defect_by_hand(inst, f):
    """The equation's defect written out term by term: the reference oracle."""
    lhs_factor = (inst.a - ONE) * L - M + MultiPoly.const(inst.b)
    left_line = D + inst.delta_i * L + MultiPoly.const(inst.c_i)
    right_line = D + M + inst.delta_j * L + MultiPoly.const(inst.c_j)
    f_lm = f.substitute("l", L + M)
    f_shift = f.substitute("l", M).substitute("d", D + L)
    f_m = f.substitute("l", M)
    return lhs_factor * f_lm - f_shift * left_line + right_line * f_m


_gaussian = st.builds(
    Scalar,
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
_dl_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.just(0)), _gaussian, max_size=6
).map(MultiPoly)


@given(st.tuples(*[_gaussian] * 6), _dl_polys)
def test_defect_is_the_equation_written_out(params, f):
    # the Jacobi defect of the four-line table is the equation's defect
    inst = FuncEqInstance(*params, 3)
    assert _defect_intertwiner(inst, f) == _defect_by_hand(inst, f)


def _combined(defect, inst, ed, el):
    """base + sum_p p * part_p at the instance's parameter values."""
    out = _affine_part(defect, ed, el, None)
    for p, name in enumerate(_PARAMETERS):
        out = out + getattr(inst, name) * _affine_part(defect, ed, el, p)
    return out


@settings(max_examples=40)
@given(st.tuples(*[_gaussian] * 6))
def test_affine_images_recombine_to_the_defects(params):
    inst = FuncEqInstance(*params, 4)
    for ed, el in _monomials(4, None):
        f = MultiPoly({(ed, el, 0): ONE})
        direct = _defect_intertwiner(inst, f)
        assert _combined(_defect_intertwiner, inst, ed, el) == direct
        assert direct == _defect_by_hand(inst, f)
        assert _combined(_defect_bcsx, inst, ed, el) == _defect_bcsx(inst, f)


def _nonzero_parameters(inst):
    return sum(not getattr(inst, name).is_zero() for name in _PARAMETERS)


def test_cold_and_warm_images_give_identical_bases():
    # the adjoint line at Gaussian weight and constant solves at every bound
    delta, c = Scalar(Fraction(3, 2), 1), sc("1/2")
    insts = (
        FuncEqInstance(Scalar(2), ZERO, delta, c, delta, c, 4),
        FuncEqInstance(Scalar(2, 1), sc("1/3"), delta, c, Scalar(1, -1), Scalar(0, 2), 4),
    )

    solvers = (solve_intertwiner, bcsx_variant_solver)
    n = len(_monomials(4, None))
    cold = []
    for inst in insts:
        for solve in solvers:
            _affine_part.cache_clear()
            cold.append(solve(inst))
            # a cold solve builds the base and one part per nonzero parameter
            assert _affine_part.cache_info().misses == (1 + _nonzero_parameters(inst)) * n
    warm = [solve(inst) for inst in insts for solve in solvers]
    again = [solve(inst) for inst in insts for solve in solvers]
    assert _affine_part.cache_info().misses == 2 * (1 + len(_PARAMETERS)) * n
    assert cold == warm == again
    assert cold[0].dimension == 1
    assert _proportional(cold[0].basis[0], D + delta * L + MultiPoly.const(c))


def test_cold_homogeneous_solve_builds_only_the_parts_it_reads():
    # b, c_i and c_j are zero in every homogeneous solve, so their parts
    # are never built: the cache holds the base and the a, delta_i and
    # delta_j parts of each monomial, and nothing else
    k = 5
    _affine_part.cache_clear()
    solve_homogeneous(Scalar(3), sc("1/2"), Scalar(-2), k)
    built = _affine_part.cache_info()
    assert built.misses == built.currsize == 4 * len(_monomials(k, k))
    read = [None] + [_PARAMETERS.index(name) for name in ("a", "delta_i", "delta_j")]
    for ed, el in _monomials(k, k):
        for p in read:
            _affine_part(_defect_intertwiner, ed, el, p)
    assert _affine_part.cache_info().misses == built.misses


def test_repeated_solve_of_637_images_makes_no_new_miss():
    # 91 monomials reach total degree 12; with all six parameters nonzero
    # a solve reads 7 * 91 = 637 images, and a repeat builds none of them
    inst = FuncEqInstance(Scalar(2, 1), sc("1/3"), Scalar(3), sc("1/2"), Scalar(1, -1), Scalar(0, 2), 12)
    _affine_part.cache_clear()
    first = solve_intertwiner(inst)
    built = _affine_part.cache_info()
    assert built.misses == built.currsize == 637
    assert solve_intertwiner(inst) == first
    assert _affine_part.cache_info().misses == 637


def test_cold_family_varying_delta_j_builds_four_images_per_monomial():
    # the base and the a and delta_i parts are summed once for the family,
    # and each member adds its own delta_j part: 4 * (k + 1) images in all
    k = 5
    a, delta_i = Scalar(3), sc("1/2")
    family = [
        FuncEqInstance(a, ZERO, delta_i, ZERO, delta_j, ZERO, k, homogeneous_degree=k)
        for delta_j in (Scalar(-2), ONE, sc("2/7"), Scalar(1, 1))
    ]
    _affine_part.cache_clear()
    _solve_family(family, _defect_intertwiner)
    built = _affine_part.cache_info()
    assert built.misses == built.currsize == 4 * (k + 1)


def _lone_solve(inst, defect, extra_conditions=()):
    """The per-instance assembly loop _solve_by_matching ran before families: the reference."""
    monomials = _monomials(inst.degree_bound, inst.homogeneous_degree)
    scaled_parts = [(None, ONE)] + [
        (p, value)
        for p, value in enumerate(getattr(inst, name) for name in _PARAMETERS)
        if not value.is_zero()
    ]
    columns = []
    for ed, el in monomials:
        sums = {}
        for p, scale in scaled_parts:
            _add_scaled(sums, scale, _affine_part(defect, ed, el, p).terms)
        column = _reduce_sums(sums)
        if extra_conditions:
            mono = MultiPoly({(ed, el, 0): ONE})
            for index, condition in enumerate(extra_conditions, 1):
                column.update(((index, key), coeff) for key, coeff in condition(mono).terms.items())
        columns.append(column)
    basis = [
        MultiPoly({(*monomials[i], 0): coeff for i, coeff in vec.items()})
        for vec in nullspace(columns)
    ]
    return SolutionBasis(tuple(basis))


def _terms_in_order(solution):
    return [list(p.terms.items()) for p in solution.basis]


# small values, zero among them, so that members share values, hit
# solutions and leave parameters out of their sums
_small = st.sampled_from((ZERO, ONE, Scalar(-1), Scalar(2), sc("1/2"), Scalar(0, 1), sc("-2/3")))


@st.composite
def _families(draw):
    """Instances of one degree window; each parameter is shared by every member or drawn per member."""
    bound = draw(st.integers(0, 3))
    homogeneous = draw(st.none() | st.integers(0, bound))
    shared = list(draw(st.tuples(*[st.booleans()] * len(_PARAMETERS))))
    common = list(draw(st.tuples(*[_small] * len(_PARAMETERS))))
    if draw(st.booleans()):
        # the top-degree equation: b, c_i and c_j shared at zero
        for p in (1, 3, 5):
            shared[p], common[p] = True, ZERO
    family = []
    for _ in range(draw(st.integers(1, 4))):
        params = [common[p] if shared[p] else draw(_small) for p in range(len(_PARAMETERS))]
        if draw(st.booleans()):
            # delta_j on the degree-offset row of a degree in the window,
            # where a homogeneous solution can live
            k = homogeneous if homogeneous is not None else draw(st.integers(0, bound))
            params[4] = params[2] + Scalar(k + 1) - params[0]
        family.append(FuncEqInstance(*params, bound, homogeneous))
    return family


@settings(max_examples=60, deadline=None)
@given(_families(), st.sampled_from((_defect_intertwiner, _defect_bcsx)), st.booleans())
def test_family_gives_each_member_its_lone_basis(family, defect, skew):
    extra = (_skew_condition,) if skew else ()
    solved = _solve_family(family, defect, extra)
    assert len(solved) == len(family)
    for inst, basis in zip(family, solved):
        reference = _lone_solve(inst, defect, extra)
        assert basis == reference
        assert _terms_in_order(basis) == _terms_in_order(reference)
        assert _terms_in_order(_solve_by_matching(inst, defect, extra)) == _terms_in_order(reference)


def test_family_of_the_adjoint_line_finds_it_in_each_member():
    # each member is the adjoint line at its own weight and constant, so
    # every member has the one solution d + delta*l + c, scaled by nullspace
    family = [
        FuncEqInstance(Scalar(2), ZERO, delta, c, delta, c, 3)
        for delta, c in ((Scalar(5), Scalar(7)), (sc("1/2"), ZERO), (Scalar(1, 1), sc("-1/3")))
    ]
    solved = _solve_family(family, _defect_intertwiner)
    for inst, basis in zip(family, solved):
        assert basis.dimension == 1
        assert _proportional(basis.basis[0], D + inst.delta_i * L + MultiPoly.const(inst.c_i))
        assert _terms_in_order(basis) == _terms_in_order(_lone_solve(inst, _defect_intertwiner))


def test_family_refuses_members_of_two_degree_windows():
    inst = FuncEqInstance(Scalar(3), ZERO, ONE, ZERO, ZERO, ZERO, 2)
    for other in (
        FuncEqInstance(Scalar(3), ZERO, ONE, ZERO, ZERO, ZERO, 1),
        FuncEqInstance(Scalar(3), ZERO, ONE, ZERO, ZERO, ZERO, 2, homogeneous_degree=2),
    ):
        with pytest.raises(ValueError, match="degree window"):
            _solve_family([inst, other], _defect_intertwiner)


def test_constant_mismatch_kills_solutions():
    inst = FuncEqInstance(Scalar(2), ONE, Scalar(5), ZERO, Scalar(3), ZERO, 6)
    assert solve_intertwiner(inst).dimension == 0


def test_constant_necessity_on_random_instances():
    rng = random.Random(41)
    for _ in range(10):
        a = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        ci = Scalar(rng.randint(-3, 3))
        cj = Scalar(rng.randint(-3, 3))
        b = ci - cj + Scalar(rng.choice([1, -1, 2]))
        di = Scalar(Fraction(rng.randint(1, 5), rng.randint(1, 2)))
        dj = Scalar(rng.randint(-2, 2))
        inst = FuncEqInstance(a, b, di, ci, dj, cj, 6)
        assert solve_intertwiner(inst).dimension == 0


def test_degree_zero_identity_row():
    basis = solve_homogeneous(ONE, Scalar(4), Scalar(4), 0)
    assert basis.dimension == 1
    assert _proportional(basis.basis[0], MultiPoly.one())
    # the inhomogeneous solver at bound zero finds the same constant line
    for di in (Scalar(4), Scalar(-2), sc("1/3")):
        inst = FuncEqInstance(ONE, ZERO, di, ZERO, di, ZERO, 0)
        basis = solve_intertwiner(inst)
        assert basis.dimension == 1
        assert _proportional(basis.basis[0], MultiPoly.one())


def test_homogeneous_shifted_rows():
    # a = 1, delta difference 2, degree 2
    di = Scalar(-1)
    basis = solve_homogeneous(ONE, di, di + Scalar(2), 2)
    assert basis.dimension == 1
    assert _proportional(basis.basis[0], L * (D - di * L))
    # generic a, difference 2 - a, degree 1
    a, di = Scalar(3), Scalar(1)
    basis = solve_homogeneous(a, di, di + Scalar(2) - a, 1)
    assert basis.dimension == 1
    assert _proportional(basis.basis[0], D - (di / (ONE - a)) * L)


def test_degree_three_rows_are_pinned():
    f = L * (D * D + 3 * D * L + 2 * L * L)
    basis = solve_homogeneous(ONE, Scalar(-2), ONE, 3)
    assert basis.dimension == 1
    assert _proportional(basis.basis[0], f)
    # the transposed parameter pair admits no solution at all
    assert solve_homogeneous(ONE, Scalar(-1), Scalar(2), 3).dimension == 0
    # the generic-regime cubic only solves at a = 5/3
    for a in (sc("5/3"), Scalar(2), Scalar(3), sc("1/2")):
        dim = solve_homogeneous(a, sc("-2/3"), sc("5/3"), 3).dimension
        assert dim == (1 if a == sc("5/3") else 0)


def test_degree_offset():
    # constant solution lives where the deltas differ by 1 - a
    r = degree_offset(MultiPoly.one(), Scalar(3), Scalar(1), Scalar(1) + ONE - Scalar(3))
    assert r.deg_lambda == 0 and r.passed
    r = degree_offset(D + 5 * L, Scalar(2), Scalar(5), Scalar(5))
    assert r.deg_lambda == 1 and r.expected == ONE and r.passed
    f = L * (D * D + 3 * D * L + 2 * L * L)
    r = degree_offset(f, ONE, Scalar(-2), ONE)
    assert r.deg_lambda == 3 and r.expected == Scalar(3) and r.passed
    with pytest.raises(NotASolution):
        degree_offset(D * D, ONE, Scalar(-1), Scalar(2))
    with pytest.raises(NotASolution):
        degree_offset(MultiPoly.zero(), ONE, ONE, ONE)


def test_verify_solution_table_all_rows():
    result = verify_solution_table()
    assert result.report.passed
    assert len(result.rows) >= 8
    seen = {rv.row_id for rv in result.rows}
    assert seen == {row.row_id for row in TABLE_ROWS}
    for rv in result.rows:
        # samples per free parameter and five perturbations each
        assert len(rv.perturbed_dimensions) == 5
        assert rv.dimension == 1


def _verify_by_six_solves(a_samples, delta_samples):
    """verify_solution_table as it ran before families: six lone solves per instance."""
    report = Report("homogeneous solution table")
    rows = []
    for row in TABLE_ROWS:
        for a, di, dj, stated in row.instances(a_samples, delta_samples):
            check_id = f"{row.row_id}[a={a},delta_i={di}]"
            if di.is_zero():
                report.skip(check_id, "the table assumes delta_i != 0")
                continue
            defect = _defect_intertwiner(FuncEqInstance(a, ZERO, di, ZERO, dj, ZERO, row.k), stated)

            def solve(delta_j):
                inst = FuncEqInstance(a, ZERO, di, ZERO, delta_j, ZERO, row.k, homogeneous_degree=row.k)
                return _lone_solve(inst, _defect_intertwiner)

            basis = solve(dj)
            matches = basis.dimension == 1 and _proportional(basis.basis[0], stated)
            perturbed = tuple(solve(dj + eps).dimension for eps in _PERTURBATIONS)
            rv = RowVerification(
                row.row_id, a, di, dj, row.k, defect.is_zero(), basis.dimension, matches, perturbed
            )
            rows.append(rv)
            if rv.passed:
                report.ok(check_id)
            else:
                report.fail(
                    check_id,
                    f"solves={rv.stated_solves} dim={rv.dimension} "
                    f"matches={rv.matches_table} perturbed={rv.perturbed_dimensions}",
                )
    return rows, report


def test_verify_solution_table_is_the_six_solve_loop_on_the_default_samples():
    result = verify_solution_table()
    rows, report = _verify_by_six_solves(*verify_solution_table.__defaults__)
    assert result.rows == rows
    assert result.report.to_dict() == report.to_dict()


def test_verify_solution_table_is_the_six_solve_loop_on_a_gaussian_grid_at_the_cap():
    # 16 x 16 short Gaussian samples, the verify-prop36 sample cap, with a
    # zero delta (skipped), a = 1 and a = 2 among them
    rng = random.Random(31)

    def short():
        return Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    a_samples = (ONE, Scalar(2), *(short() for _ in range(14)))
    delta_samples = (ZERO, *(short() for _ in range(15)))
    result = verify_solution_table(a_samples, delta_samples)
    rows, report = _verify_by_six_solves(a_samples, delta_samples)
    assert result.rows == rows
    assert result.report.to_dict() == report.to_dict()
    assert any(rv.dimension == 1 for rv in rows) and report.to_dict()["counts"]["skipped"]


# The table written out in full, as rows stated it before they took
# delta_j from the degree-offset row: the a each row holds at (None for
# every a != 1), and its (delta_i, delta_j) at a given delta_i for two
# admissible a, or the one there is.
_STATED_TABLE = {
    "a-generic-k0": (None, {sc(3): lambda di: (di, di - Scalar(2)), sc("1/2"): lambda di: (di, di + sc("1/2"))}),
    "a-generic-k1": (None, {sc(3): lambda di: (di, di - ONE), sc("1/2"): lambda di: (di, di + sc("3/2"))}),
    "a-generic-k2": (None, {sc(3): lambda di: (ONE, ONE), sc("1/2"): lambda di: (sc("-3/2"), ONE)}),
    "a-generic-k3": (sc("5/3"), {sc("5/3"): lambda di: (sc("-2/3"), sc("5/3"))}),
    "a-one-k0": (ONE, {ONE: lambda di: (di, di)}),
    "a-one-k1": (ONE, {ONE: lambda di: (di, di + ONE)}),
    "a-one-k2": (ONE, {ONE: lambda di: (di, di + Scalar(2))}),
    "a-one-k3": (ONE, {ONE: lambda di: (Scalar(-2), ONE)}),
}


# The paper's solution of each row at (a, delta_i), written out: the
# oracle for the rows' solutions, which funceq derives from Lemma C.
_STATED_SOLUTIONS = {
    "a-generic-k0": lambda a, di: MultiPoly.one(),
    "a-generic-k1": lambda a, di: D - (di / (ONE - a)) * L,
    "a-generic-k2": lambda a, di: D * D - ((ONE + 2 * di) / (ONE - a)) * D * L - (di / (ONE - a)) * L * L,
    "a-generic-k3": lambda a, di: D**3 + sc("3/2") * D * D * L - sc("3/2") * D * L * L - L**3,
    "a-one-k0": lambda a, di: MultiPoly.one(),
    "a-one-k1": lambda a, di: L,
    "a-one-k2": lambda a, di: L * (D - di * L),
    "a-one-k3": lambda a, di: L * (D * D + 3 * D * L + 2 * L * L),
}

# the sample grids the CI passes verify-prop36 at its cap, 16 short
# Gaussian values each
_CAP_A_SAMPLES = (
    "1/7+2/3*i,-2/1+1/2*i,-3/2-2/6*i,-6/1+4/3*i,-6/8+1/1*i,8/7+5/2*i,-2/2-6/7*i,-4/1-1/2*i,"
    "3/4-6/8*i,9/3+1/3*i,-4/6-2/8*i,-4/1-7/9*i,0/6-5/3*i,8/1-2/6*i,-8/9-3/4*i,6/6-6/3*i"
)
_CAP_DELTA_SAMPLES = (
    "0/7-2/1*i,-3/6+4/4*i,5/7-1/7*i,9/7+3/8*i,-7/5+8/9*i,6/9+1/8*i,1/5-1/7*i,-3/9+3/1*i,"
    "3/7-1/4*i,-9/1+4/2*i,-3/5-3/2*i,6/7+1/5*i,5/2-3/9*i,2/2+5/1*i,-8/1+5/9*i,1/6+8/8*i"
)


@pytest.mark.parametrize(
    "samples",
    [
        verify_solution_table.__defaults__,
        tuple(tuple(parse_scalar(v) for v in text.split(",")) for text in (_CAP_A_SAMPLES, _CAP_DELTA_SAMPLES)),
    ],
    ids=["default", "cap"],
)
def test_each_row_derives_the_stated_solution(samples):
    seen = set()
    for row in TABLE_ROWS:
        for a, di, _, solution in row.instances(*samples):
            assert not solution.is_zero(), (row.row_id, a, di)
            assert _proportional(solution, _STATED_SOLUTIONS[row.row_id](a, di)), (row.row_id, a, di)
            seen.add(row.row_id)
    assert seen == set(_STATED_SOLUTIONS)


def test_table_rows_keep_the_stated_parameters():
    assert [row.row_id for row in TABLE_ROWS] == list(_STATED_TABLE)
    for row in TABLE_ROWS:
        a_stated, pairs = _STATED_TABLE[row.row_id]
        assert row.a == a_stated
        for a, pair in pairs.items():
            for di in (Scalar(7), sc("-1/3")):
                delta_i, delta_j, _ = row.instantiate(a, di)
                assert (delta_i, delta_j) == pair(di), (row.row_id, a, di)


def test_homogeneous_degree_past_the_bound_is_refused():
    with pytest.raises(ValueError, match="degree bound"):
        FuncEqInstance(Scalar(3), ZERO, ONE, ZERO, ZERO, ZERO, 0, homogeneous_degree=1)
    inst = FuncEqInstance(Scalar(3), ZERO, ONE, ZERO, ZERO, ZERO, 1, homogeneous_degree=1)
    assert solve_intertwiner(inst).dimension == 1


def test_perturbed_shift_row_dies():
    # a = 1, difference 3/2 instead of 1, degree 1
    assert solve_homogeneous(ONE, ZERO + sc("1/2"), Scalar(2), 1).dimension == 0


def test_bcsx_variant():
    inst = FuncEqInstance(ONE, ZERO, Scalar(4), Scalar(9), Scalar(4), Scalar(9), 0)
    basis = bcsx_variant_solver(inst)
    assert basis.dimension == 1
    # direct substitution oracle: constants solve when the lines agree
    assert _defect_bcsx(inst, MultiPoly.one()).is_zero()
    mismatch = FuncEqInstance(ONE, ZERO, Scalar(4), Scalar(9), Scalar(4), Scalar(8), 0)
    assert bcsx_variant_solver(mismatch).dimension == 0
    generic = FuncEqInstance(Scalar(2), ZERO, Scalar(5), Scalar(1), Scalar(3), Scalar(4), 4)
    for p in bcsx_variant_solver(generic).basis:
        assert _defect_bcsx(generic, p).is_zero()


def test_solver_soundness_and_linearity():
    insts = [
        FuncEqInstance(Scalar(2), ZERO, Scalar(5), Scalar(7), Scalar(5), Scalar(7), 3),
        FuncEqInstance(ONE, ZERO, Scalar(-1), ZERO, ONE, ZERO, 4),
        FuncEqInstance(Scalar(3), ZERO, ONE, ZERO, ZERO, ZERO, 4),
    ]
    for inst in insts:
        basis = solve_intertwiner(inst)
        for p in basis.basis:
            assert _defect_intertwiner(inst, p).is_zero()
        if basis.dimension:
            doubled = p * Scalar(7)
            assert _defect_intertwiner(inst, doubled).is_zero()


def test_dimension_stable_when_doubling_bound():
    rows = [
        (Scalar(3), Scalar(1), Scalar(1) + Scalar(2) - Scalar(3), 1),
        (ONE, Scalar(-1), ONE, 2),
    ]
    for a, di, dj, k in rows:
        low = solve_intertwiner(FuncEqInstance(a, ZERO, di, ZERO, dj, ZERO, k + 1))
        high = solve_intertwiner(FuncEqInstance(a, ZERO, di, ZERO, dj, ZERO, 2 * (k + 1)))
        assert low.dimension == high.dimension == 1


@settings(max_examples=40)
@given(st.tuples(*[_gaussian] * 3), st.integers(0, 6), st.booleans())
def test_degree_offset_row_leaves_one_degree(params, k, on_row):
    # the terms linear in l: only d^p l^q reaches d^p l m^q, with the
    # coefficient a - delta_i + delta_j - k - 1, so f = 0 unless it vanishes
    a, delta_i, delta_j = params
    if on_row:
        delta_j = delta_i - a + Scalar(k + 1)
    offset = a - delta_i + delta_j - Scalar(k + 1)
    inst = FuncEqInstance(a, ZERO, delta_i, ZERO, delta_j, ZERO, k, homogeneous_degree=k)
    monomials = _monomials(k, k)
    for fd, fl in monomials:
        image = _defect_intertwiner(inst, MultiPoly({(fd, fl, 0): ONE}))
        for ed, el in monomials:
            expected = offset if (fd, fl) == (ed, el) else ZERO
            assert image.terms.get((ed, 1, el), ZERO) == expected, ((fd, fl), (ed, el))
    if not offset.is_zero():
        assert solve_homogeneous(a, delta_i, delta_j, k).dimension == 0


def test_no_homogeneous_solutions_past_degree_three():
    # the classification cap: at the would-be difference pattern for higher
    # degrees, the solution space stays empty
    rng = random.Random(3)
    for k in (4, 5):
        for _ in range(12):
            a = Scalar(Fraction(rng.randint(-4, 8), rng.randint(1, 3)))
            di = Scalar(Fraction(rng.randint(1, 7), rng.randint(1, 3)))
            dj = di + Scalar(k + 1) - a
            assert solve_homogeneous(a, di, dj, k).dimension == 0


def test_degree_offset_for_every_solution_found():
    rng = random.Random(99)
    for _ in range(12):
        a = Scalar(Fraction(rng.randint(-3, 5), rng.randint(1, 3)))
        di = Scalar(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
        for k in range(4):
            dj = di + Scalar(k + 1) - a
            basis = solve_homogeneous(a, di, dj, k)
            for p in basis.basis:
                r = degree_offset(p, a, di, dj)
                assert r.passed
