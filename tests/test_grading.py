import dataclasses
from fractions import Fraction

import pytest

from lieconformal.algebra import ConformalAlgebra, block, check_jacobi, check_skew, map_virasoro_poly
from lieconformal.grading import (
    HypothesisViolated,
    MalformedBracket,
    NotVirasoroAtZero,
    ScanResult,
    assemble_witness_algebra,
    check_b_linear,
    default_grid,
    profile_from_table,
    scan_a1,
    split_I0_I1,
)
from lieconformal.poly import D, L, M, MultiPoly
from lieconformal.scalars import I, ONE, Scalar, ZERO, sc


def _skew(p):
    return -p.substitute("l", -L - D)


def test_split_block_has_no_annihilated_lines():
    I0, I1, rep = split_I0_I1(block(1, 8))
    assert I0 == list(range(9))
    assert I1 == []
    assert rep.passed


def test_split_decoupled_generator():
    table = {
        (0, 0): {0: D + 2 * L},
        (0, 1): {},
        (1, 0): {},
        (1, 1): {},
    }
    A = ConformalAlgebra(("L0", "L1"), table, grades={0: 0, 1: 1})
    I0, I1, rep = split_I0_I1(A)
    assert I0 == [0] and I1 == [1]
    assert rep.passed


def test_split_detects_mixed_bracket():
    entry01 = D + 3 * L
    entry13 = 2 * D + L
    table = {
        (0, 0): {0: D + 2 * L},
        (0, 1): {1: entry01},
        (1, 0): {1: _skew(entry01)},
        (0, 2): {},
        (2, 0): {},
        (0, 3): {},
        (3, 0): {},
        (1, 2): {3: entry13},  # acting line bracketed with an annihilated one
        (2, 1): {3: _skew(entry13)},
    }
    A = ConformalAlgebra(
        ("L0", "L1", "L2", "L3"), table, grades={i: i for i in range(4)}
    )
    I0, I1, rep = split_I0_I1(A)
    assert 1 in I0 and 2 in I1
    assert not rep.passed
    # the witness is the Jacobi defect on (0, 1, 2): only the middle term,
    # -p_{0,1}(-l-m, l) p_{1,2}(d, l+m), survives
    [item] = [item for item in rep.failures if item.check_id == "split(1,2)"]
    assert item.witnesses == (
        "acting and annihilated lines bracket nontrivially: "
        + (-(2 * L - M) * (2 * D + L + M)).render(),
    )


def test_split_detects_mixed_bracket_with_annihilated_low_index():
    # the annihilated line carries the smaller index this time
    entry02 = D + 3 * L
    entry12 = 2 * D + L
    table = {
        (0, 0): {0: D + 2 * L},
        (0, 1): {},
        (1, 0): {},
        (0, 2): {2: entry02},
        (2, 0): {2: _skew(entry02)},
        (0, 3): {},
        (3, 0): {},
        (1, 2): {3: entry12},
        (2, 1): {3: _skew(entry12)},
    }
    A = ConformalAlgebra(
        ("L0", "L1", "L2", "L3"), table, grades={i: i for i in range(4)}
    )
    I0, I1, rep = split_I0_I1(A)
    assert 1 in I1 and 2 in I0
    assert not rep.passed
    # the Jacobi defect on (0, 1, 2): only -p_{0,2}(d+m, l) p_{1,2}(d, m) survives
    [item] = [item for item in rep.failures if item.check_id == "split(1,2)"]
    assert item.witnesses == (
        "acting and annihilated lines bracket nontrivially: "
        "-2*d^2 - 6*d*l - 3*d*m - 3*l*m - m^2",
    )


def test_split_requires_virasoro_at_zero():
    A = block(2, 4)  # p_{0,0} = 2(d + 2l)
    with pytest.raises(NotVirasoroAtZero):
        split_I0_I1(A)


def test_b_linear_on_builtins():
    assert check_b_linear(block(1, 8)).passed
    assert check_b_linear(block(2, 6)).passed
    assert check_b_linear(map_virasoro_poly(9)).passed


def test_b_linear_detects_defect():
    p01 = D + L + MultiPoly.const(1)
    p02 = D + 2 * L + MultiPoly.const(3)  # b_2 = 3 instead of 2
    p11 = D + 2 * L
    table = {
        (0, 0): {0: D + 2 * L},
        (0, 1): {1: p01},
        (1, 0): {1: _skew(p01)},
        (0, 2): {2: p02},
        (2, 0): {2: _skew(p02)},
        (1, 1): {2: p11},
    }
    A = ConformalAlgebra(("L0", "L1", "L2"), table, grades={0: 0, 1: 1, 2: 2}, truncation=2)
    rep = check_b_linear(A)
    assert not rep.passed


def test_b_linear_hypothesis_violation():
    table = {
        (0, 0): {0: D + 2 * L},
        (0, 1): {1: D + L},
        (1, 0): {1: _skew(D + L)},
        (1, 1): {},  # the grade-one line annihilates itself in range
    }
    A = ConformalAlgebra(("L0", "L1"), table, grades={0: 0, 1: 1}, truncation=2)
    with pytest.raises(HypothesisViolated):
        check_b_linear(A)


def test_profile_block_normalizes_grade_zero():
    prof = profile_from_table(block(2, 6))
    # after rescaling the grade-zero generator, a_i = (i + 2p)/p
    assert prof.a_seq == {i: sc(Fraction(i + 4, 2)) for i in range(7)}
    assert all(b.is_zero() for b in prof.b_seq.values())


def test_profile_block_with_vanishing_lambda_coefficient():
    # where i + j = -2p the l-coefficient of p_{i,j} vanishes, so deg_l drops
    # to 0 while the total degree stays 1 (p_{0,4} of block(-2) normalizes to d)
    for p, a1 in ((-2, sc(Fraction(3, 2))), (Fraction(-3, 2), sc(Fraction(4, 3)))):
        prof = profile_from_table(block(p, 12))
        assert prof.a_seq == {i: 2 + i * (a1 - 2) for i in range(13)}
        assert {v for v in prof.deg_choices.values() if v is not None} == {1}


def test_profile_map_virasoro():
    prof = profile_from_table(map_virasoro_poly(9))
    assert all(a == Scalar(2) for a in prof.a_seq.values())
    nonzero_degs = {v for v in prof.deg_choices.values() if v is not None}
    assert nonzero_degs == {1}


def test_profile_rejects_malformed_bracket():
    table = {
        (0, 0): {0: D + 2 * L},
        (0, 1): {1: D * D},
        (1, 0): {1: _skew(D * D)},
        (1, 1): {},
    }
    A = ConformalAlgebra(("L0", "L1"), table, grades={0: 0, 1: 1}, truncation=2)
    with pytest.raises(MalformedBracket):
        profile_from_table(A)


def test_profile_validates_degree_relation():
    # deg_l p_{1,1} inconsistent with a_1 + a_1 - a_2 - 1
    p01 = D + 2 * L
    p02 = D + 3 * L
    p11 = D + 2 * L  # deg 1, but a_1+a_1-a_2-1 = 0
    table = {
        (0, 0): {0: D + 2 * L},
        (0, 1): {1: p01},
        (1, 0): {1: _skew(p01)},
        (0, 2): {2: p02},
        (2, 0): {2: _skew(p02)},
        (1, 1): {2: p11},
        (1, 2): {}, (2, 1): {}, (2, 2): {},
    }
    A = ConformalAlgebra(("L0", "L1", "L2"), table, grades={0: 0, 1: 1, 2: 2})
    with pytest.raises(MalformedBracket):
        profile_from_table(A)


# -- the admissibility scan ---------------------------------------------------


def test_scan_constant_witness():
    r = scan_a1(Scalar(2), 12)
    assert r.admissible
    assert r.witness_sequence == tuple([Scalar(2)] * 12)
    A = assemble_witness_algebra(r)
    assert check_skew(A).passed and check_jacobi(A).passed
    # the algebra is the table the scan checked, entry for entry
    assert set(A.table) == set(r.table)
    for (i, j), p in r.table.items():
        assert A.entry(i, j).get(i + j, MultiPoly.zero()) == p
    # the table is carried along but is not part of the result's value
    assert r == dataclasses.replace(r, table=None)
    assert "table" not in r.to_dict()
    bare = ScanResult(r.a1, r.horizon, True, r.witness_sequence, None)
    with pytest.raises(ValueError, match="no witness to assemble"):
        assemble_witness_algebra(bare)


def test_scan_accepts_unit_slope():
    r = scan_a1(ONE, 12)
    assert r.admissible
    assert r.witness_sequence[0] == ONE
    assert all(x == ZERO for x in r.witness_sequence[1:])
    A = assemble_witness_algebra(r)
    assert check_skew(A).passed and check_jacobi(A).passed


def test_scan_rejects_five_quarters():
    r = scan_a1(sc("5/4"), 12)
    assert not r.admissible
    assert r.witness_sequence is None
    assert r.rejection_depth is not None


def test_scan_rejects_complex_slope():
    assert not scan_a1(I, 12).admissible


def test_scan_is_deterministic():
    first = scan_a1(Scalar(2), 8)
    second = scan_a1(Scalar(2), 8)
    assert first == second
    r1 = scan_a1(sc("5/4"), 8)
    r2 = scan_a1(sc("5/4"), 8)
    assert r1 == r2


def test_scan_edge_horizons():
    with pytest.raises(ValueError):
        scan_a1(Scalar(2), 1)
    r = scan_a1(Scalar(2), 2)
    assert r.admissible and len(r.witness_sequence) == 2
    assert not scan_a1(Scalar(3), 6).admissible  # strictly increasing values
    assert not scan_a1(Scalar(0), 6).admissible  # strictly decreasing values


def test_scan_monotone_for_admissible_values():
    for val in (Scalar(2), ONE):
        admitted = [scan_a1(val, n).admissible for n in (4, 8, 12)]
        assert admitted == [True, True, True]


def test_three_halves_has_no_finite_witness():
    """The scan's bounded search rejects 3/2 at horizon 12, and the prefix
    (3/2, 1, 3/2, 1) is obstructed: on the hand-built tables below, the
    Jacobi identity on (1,1,2) asks for the constant 2 as the grade-four
    diagonal bracket p_{2,2}, and skew-symmetry forbids a nonzero constant
    there.  The prefix (3/2, 1, *) is not obstructed in general: block(-2)
    extends (3/2, 1, 1/2, ...) and passes both axiom checks, but it has
    more distinct values than the scan's bound of horizon/2 allows."""
    r = scan_a1(sc("3/2"), 12)
    assert not r.admissible

    # independent confirmation on hand-built candidate tables
    a = {1: sc("3/2"), 2: ONE, 3: sc("3/2"), 4: ONE}
    for p22 in (MultiPoly.zero(), MultiPoly.const(2)):
        table = {(0, 0): {0: D + 2 * L}}
        for j in range(1, 5):
            poly = D + a[j] * L
            table[(0, j)] = {j: poly}
            table[(j, 0)] = {j: _skew(poly)}
        table[(1, 1)] = {2: D + 2 * L}
        table[(1, 2)] = {3: MultiPoly.one()}
        table[(2, 1)] = {3: _skew(MultiPoly.one())}
        table[(1, 3)] = {4: D + 2 * L}
        table[(3, 1)] = {4: _skew(D + 2 * L)}
        table[(2, 2)] = {4: p22} if not p22.is_zero() else {}
        A = ConformalAlgebra(
            tuple(f"L{i}" for i in range(5)), table,
            grades={i: i for i in range(5)}, truncation=4,
        )
        assert not (check_skew(A).passed and check_jacobi(A).passed)


def test_scan_grid_at_horizon_twelve():
    # the measured truth: only the constant family and the unit slope
    # admit finite witnesses on the denominator-six grid
    grid = default_grid()
    admissible = {str(r.a1) for v in grid for r in [scan_a1(v, 12)] if r.admissible}
    assert admissible == {"1", "2"}


def test_default_grid_contents():
    values = {str(v) for v in default_grid()}
    assert values == {
        "1", "7/6", "6/5", "5/4", "4/3", "7/5", "3/2",
        "8/5", "5/3", "7/4", "9/5", "11/6", "2",
    }
