import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieconformal.funceq import (
    FuncEqInstance,
    NotASolution,
    TABLE_ROWS,
    _PARAMETERS,
    _affine_part,
    _defect_bcsx,
    _defect_intertwiner,
    _monomials,
    bcsx_variant_solver,
    degree_offset,
    solve_homogeneous,
    solve_intertwiner,
    verify_solution_table,
)
from lieconformal.poly import D, L, M, MultiPoly
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
