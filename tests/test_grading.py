import dataclasses
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lieconformal.algebra import (
    ConformalAlgebra,
    block,
    check_jacobi,
    check_skew,
    jacobi_defect,
    map_virasoro_poly,
    skew_image,
)
from lieconformal.funceq import (
    _AD_MONOMIALS,
    TABLE_ROWS,
    FuncEqInstance,
    _defect_intertwiner,
    _lemma_c_conditions,
    _lemma_c_rule,
    _lemma_c_solution,
    _proportional,
    _solve_by_matching,
    solve_homogeneous,
)
from lieconformal import grading
from lieconformal.grading import (
    HypothesisViolated,
    MalformedBracket,
    NotVirasoroAtZero,
    ScanResult,
    _entry_of,
    _MAX_STEP_DEGREE,
    _Scan,
    _skew_condition,
    assemble_witness_algebra,
    check_b_linear,
    default_grid,
    profile_from_table,
    scan_a1,
    scan_grid,
    split_I0_I1,
)
from lieconformal.poly import D, L, M, MultiPoly, exact_div
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


def _three_lines(p01, p02, p11):
    """Grades 0..2 with p_{0,0} = d + 2l and the given p_{0,1}, p_{0,2}, p_{1,1}; zero entries unset."""
    table = {(0, 0): {0: D + 2 * L}}
    for (i, j), p in (((0, 1), p01), ((0, 2), p02), ((1, 1), p11)):
        if p:
            table[(i, j)] = {i + j: p}
            if i != j:
                table[(j, i)] = {i + j: _skew(p)}
    return ConformalAlgebra(("L0", "L1", "L2"), table, grades={0: 0, 1: 1, 2: 2}, truncation=2)


@pytest.mark.parametrize("acting, message", [
    # grade 0 acts on L1 but not on L2, and [L1 _l L1] lands on L2
    (1, "acting indices not closed under addition"),
    # grade 0 acts on L2 but not on L1, and [L1 _l L1] lands on L2
    (2, "annihilated lines do not form a subalgebra"),
])
def test_split_detects_a_bracket_leaving_its_part(acting, message):
    p0 = D + 2 * L
    A = _three_lines(p0 if acting == 1 else None, p0 if acting == 2 else None, D + 2 * L)
    I0, I1, rep = split_I0_I1(A)
    assert I0 == [0, acting] and I1 == [3 - acting]
    [item] = rep.failures
    assert (item.check_id, item.witnesses) == ("split(1,1)", (message,))


def test_b_linear_skips_lines_grade_zero_does_not_act_on():
    # grade 0 annihilates L1, so b(1) is skipped and b(2) has nothing to compare against
    rep = check_b_linear(_three_lines(None, D + 2 * L + MultiPoly.const(5), D + 2 * L))
    assert rep.passed
    assert [(c.check_id, c.witnesses) for c in rep.skipped] == [
        ("b(1)", ("grade 0 does not act",)),
        ("b(2)", ("no grade-one line to compare against",)),
    ]


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
    # at a_1 = 1 row one comes from the solver, where skew leaves d/2 + l
    assert r.table[(1, 1)] == sc("1/2") * D + L
    A = assemble_witness_algebra(r)
    assert check_skew(A).passed and check_jacobi(A).passed


def test_scan_rejects_five_quarters():
    r = scan_a1(sc("5/4"), 12)
    assert not r.admissible
    assert r.witness_sequence is None
    assert r.rejection_depth is not None


def test_scan_rejects_complex_slope():
    # Im a_t = t Im a_1 keeps a_1..a_h distinct, so no branch passes
    # horizon // 2 values, and the residue bound ends the search once one
    # branch reaches that depth
    for a1 in (I, ONE + I, sc("3/2", "1/2"), Scalar(2, 1)):
        for horizon in (4, 8, 12):
            r = scan_a1(a1, horizon)
            assert not r.admissible and r.witness_sequence is None, (a1, horizon)
            assert r.rejection_depth == horizon // 2, (a1, horizon)


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


def _extended_grades(monkeypatch, grid, horizon):
    """Scan the grid: its results, and (table, h) for every table _extend returned."""
    extended = []
    extend = _Scan._extend

    def recording(self, table, h, target, p1j):
        out = extend(self, table, h, target, p1j)
        if out is not None:
            extended.append((out, h))
        return out

    monkeypatch.setattr(_Scan, "_extend", recording)
    return scan_grid(grid, horizon), extended


def _grade_holds(table, h):
    """Skew on every ordered pair and a zero Jacobi defect on every ordered triple of index sum h."""
    entry = _entry_of(table)
    return all(skew_image(table[(i, h - i)]) == table[(h - i, i)] for i in range(h + 1)) and not any(
        jacobi_defect(entry, x, y, h - x - y) for x in range(h + 1) for y in range(h + 1 - x)
    )


def _assert_every_extended_grade_holds(monkeypatch, grid, horizon):
    """The conclusion of the proof in _Scan._extend on every table it returns, then each witness's full check."""
    results, extended = _extended_grades(monkeypatch, grid, horizon)
    for table, h in extended:
        assert _grade_holds(table, h), h
    for r in results:
        if r.admissible:
            assemble_witness_algebra(r)  # raises unless check_algebra passes
    return extended


@pytest.mark.parametrize("horizon", [8, 10])
def test_forced_triples_vanish_on_every_checked_grade(monkeypatch, horizon):
    # the premises the proof in _extend takes from the construction: each
    # (1, y, z) with y, z >= 1 was solved for p_{y+1,z}, so its defect is
    # exactly zero, and every row-one entry is a nonzero nullspace vector
    _, extended = _extended_grades(monkeypatch, default_grid(6), horizon)
    forced = [(table, h, y) for table, h in extended for y in range(1, h - 1)]
    for table, h, y in forced:
        assert not jacobi_defect(_entry_of(table), 1, y, h - 1 - y), (h, y)
    assert all(table[(1, j)] for table, h in extended for j in range(1, h))
    assert len(forced) > 100


@pytest.mark.parametrize("horizon", [8, 10])
def test_grade_zero_triples_and_unchecked_skew_hold_on_every_checked_grade(monkeypatch, horizon):
    # nothing checks a table after _extend: J(0, 0, h), J(0, 1, h - 1), the
    # skew pairs _extend built and every other ordered pair and triple of
    # the new grade hold on every table it returns
    extended = _assert_every_extended_grade_holds(monkeypatch, default_grid(6), horizon)
    assert {h for _, h in extended} == set(range(2, horizon + 1))


def test_grade_check_refuses_a_jacobi_failure_that_skew_allows():
    # no table _extend returns fails the oracle above, so a hand-made one
    # shows that it still catches a failure: a self-skew term of the wrong
    # degree added to p_{2,2} breaks the grade-0 action on (0, 2, 2) only
    table = dict(scan_a1(Scalar(2), 4).table)
    assert _grade_holds(table, 4)
    extra = L * L + skew_image(L * L)
    table[(2, 2)] = table[(2, 2)] + extra
    assert skew_image(table[(2, 2)]) == table[(2, 2)]
    assert jacobi_defect(_entry_of(table), 0, 2, 2)
    assert not _grade_holds(table, 4)


@pytest.mark.parametrize("horizon", [8, 12])
def test_scan_matches_the_check_on_every_x_le_y(monkeypatch, horizon):
    # the scan's verdicts are those of a full check of each new grade,
    # since that check refuses none of the tables _extend returns
    _assert_every_extended_grade_holds(monkeypatch, default_grid(12, Fraction(0), Fraction(3)), horizon)


def test_every_extended_grade_holds_on_negative_slopes(monkeypatch):
    # horizon 14, not 12: the residue bound of _Scan._dfs leaves 880
    # extended grades at horizon 12
    extended = _assert_every_extended_grade_holds(monkeypatch, default_grid(12, Fraction(-3), Fraction(0)), 14)
    assert len(extended) > 1000


# -- the residue bound of _Scan._dfs --------------------------------------------


class _UnboundedScan(_Scan):
    """The search with no residue bound: every subtree may reach the horizon."""

    def _reach(self, depth, distinct):
        return self.horizon


_scan_parts = st.fractions(min_value=-3, max_value=4, max_denominator=30)


@settings(max_examples=60, deadline=None)
@given(
    # real slopes, and Gaussian ones, whose r is the horizon
    st.one_of(st.builds(Scalar, _scan_parts), st.builds(Scalar, _scan_parts, _scan_parts.filter(bool))),
    st.integers(2, 14),
)
def test_the_residue_bound_keeps_every_verdict_depth_and_witness(a1, horizon):
    bounded, reference = scan_a1(a1, horizon), _UnboundedScan(a1, horizon).run()
    assert bounded.to_dict() == reference.to_dict()
    assert bounded.table == reference.table


def _deepest_walk(a1, horizon, walk):
    """The deepest depth of any walk that extends walk by steps of degree 0..3
    and keeps at most horizon/2 distinct values at every depth; no table is built."""
    deepest = len(walk)
    for k in range(_MAX_STEP_DEGREE + 1):
        if deepest == horizon:
            break
        longer = walk + (a1 + walk[-1] - 1 - k,)
        if 2 * len(set(longer)) <= horizon:
            deepest = max(deepest, _deepest_walk(a1, horizon, longer))
    return deepest


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 12),
    st.fractions(min_value=-1, max_value=4, max_denominator=14),
    st.lists(st.integers(0, _MAX_STEP_DEGREE), max_size=12),
)
@example(8, Fraction(1, 5), [])  # the reach binds: r = 5 > 8 // 2 and no walk passes depth 4
@example(8, Fraction(1, 4), [])  # every residue fits: 5/4, 1/2, 3/4, 1 repeat to the horizon
def test_the_reach_is_at_least_the_deepest_walk(horizon, slope_minus_one, steps):
    # a_1 - 1 = K/r in lowest terms; the walk is a node at a depth below r
    r = slope_minus_one.denominator
    a1 = 1 + slope_minus_one
    walk = (a1,)
    for k in steps[: max(r - 2, 0)]:
        walk += (a1 + walk[-1] - 1 - k,)
        assume(2 * len(set(walk)) <= horizon and len(walk) <= horizon)
    scan = _Scan(Scalar(a1), horizon)
    assert scan._r == r
    assert scan._reach(len(walk), len(set(walk))) >= _deepest_walk(a1, horizon, walk)


@pytest.mark.parametrize(("a1", "horizon", "bounded", "unbounded"), [("6/5", 8, 3, 7), ("3/2", 10, 52, 52)])
def test_the_residue_bound_skips_extends_only_while_r_exceeds_half_the_horizon(
    monkeypatch, a1, horizon, bounded, unbounded
):
    # at 6/5, r = 5 > 8 // 2: once a branch reaches depth 4, every other
    # child is skipped; at 3/2, r = 2 and the search is the unbounded one
    calls = []
    extend = _Scan._extend

    def recording(self, *args):
        calls.append(args[1])
        return extend(self, *args)

    monkeypatch.setattr(_Scan, "_extend", recording)
    results = []
    for scan in (_Scan(sc(a1), horizon), _UnboundedScan(sc(a1), horizon)):
        calls.clear()
        results.append(scan.run())
        results.append(len(calls))
    assert results[1::2] == [bounded, unbounded]
    assert results[0] == results[2]


# -- the two identities the proof in _Scan._extend rests on ---------------------

_small_dl_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0)),
    st.builds(
        Scalar,
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=-1, max_value=1, max_denominator=2),
    ),
    max_size=4,
).map(MultiPoly)

_PAIRS_TO_FOUR = [(i, j) for i in range(5) for j in range(5) if i + j <= 4]


def _table_to_four(polys, skew):
    """A graded table on grades 0..4, one polynomial per ordered pair i + j <= 4.

    With skew, p_{j,i} for i < j is the skew image of p_{i,j} and p_{i,i}
    is f plus its skew image, so skew holds on every pair.  Jacobi is not
    imposed and mostly fails.
    """
    table = dict(zip(_PAIRS_TO_FOUR, polys))
    if skew:
        for i, j in _PAIRS_TO_FOUR:
            if i == j:
                table[(i, i)] = table[(i, i)] + skew_image(table[(i, i)])
            elif i > j:
                table[(i, j)] = skew_image(table[(j, i)])
    return table


def _defect(table, x, y, z):
    return jacobi_defect(_entry_of(table), x, y, z).get(x + y + z, MultiPoly.zero())


def _skew_defect(table, i, j):
    return table[(i, j)] - skew_image(table[(j, i)])


_TRIPLES_TO_FOUR = [(x, y, z) for x in range(5) for y in range(5) for z in range(5) if x + y + z <= 4]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_small_dl_polys, min_size=len(_PAIRS_TO_FOUR), max_size=len(_PAIRS_TO_FOUR)),
    st.sampled_from(_TRIPLES_TO_FOUR),
)
def test_lemma_a_skew_defects_of_a_swapped_triple(polys, triple):
    # J(x, y, z) + J(x, z, y)(d, l, -l-m-d) in skew defects, for a table
    # that need not be skew
    table = _table_to_four(polys, skew=False)
    x, y, z = triple
    p = lambda i, j: table[(i, j)]  # noqa: E731
    S = lambda i, j: _skew_defect(table, i, j)  # noqa: E731
    left = _defect(table, x, y, z) + _defect(table, x, z, y).substitute("m", -L - M - D)
    right = (
        p(x, y + z) * S(y, z).substitute("l", M).substitute("d", D + L)
        - p(x, z).substitute("d", D + M) * S(y, x + z).substitute("l", M)
        - p(x, y).substitute("d", -L - M) * S(x + y, z).substitute("l", L + M)
    )
    assert left == right


# Lemma B lives in four variables, d and the parameters l, m, n of three
# lines: a polynomial there is a dict from exponent 4-tuples to Scalars.


def _sum4(*fs):
    out = {}
    for f in fs:
        for key, c in f.items():
            out[key] = out.get(key, ZERO) + c
    return {key: c for key, c in out.items() if not c.is_zero()}


_ONE4 = {(0, 0, 0, 0): ONE}
_MINUS_ONE4 = {(0, 0, 0, 0): -ONE}


def _mul4(*fs):
    out = _ONE4
    for f in fs:
        acc = {}
        for k1, c1 in out.items():
            for k2, c2 in f.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                acc[key] = acc.get(key, ZERO) + c1 * c2
        out = {key: c for key, c in acc.items() if not c.is_zero()}
    return out


def _vars4(*idx, sign=1):
    """sign times the sum of the variables with these indices: 0 is d, then l, m and n."""
    return {tuple(int(i == k) for i in range(4)): Scalar(sign) for k in idx}


def _at4(p, d, l, m=None):
    """p(d, l, m) for a MultiPoly p at four-variable polynomials; m may be left out when p is free of it."""
    args = (d, l, m or {})
    powers = [[_ONE4] for _ in args]
    products = []
    for key, c in p.terms.items():
        for pw, arg, e in zip(powers, args, key):
            while len(pw) <= e:
                pw.append(_mul4(pw[-1], arg))
        products.append(_mul4({(0, 0, 0, 0): c}, *(pw[e] for pw, e in zip(powers, key))))
    return _sum4(*products)


_QUADRUPLES_TO_FOUR = [(a, b, c, e) for a, b, c in _TRIPLES_TO_FOUR for e in range(5 - a - b - c)]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_small_dl_polys, min_size=len(_PAIRS_TO_FOUR), max_size=len(_PAIRS_TO_FOUR)),
    st.sampled_from(_QUADRUPLES_TO_FOUR),
)
def test_lemma_b_jacobiator_is_a_cocycle(polys, quadruple):
    # the four-line identity of a skew table, with Jacobi not imposed
    table = _table_to_four(polys, skew=True)
    a, b, c, e = quadruple
    p = lambda i, j: table[(i, j)]  # noqa: E731
    J = lambda x, y, z: _defect(table, x, y, z)  # noqa: E731
    d, l, m = _vars4(0), _vars4(1), _vars4(2)
    terms = [_mul4(_at4(J(a, b, c), _vars4(1, 2, 3, sign=-1), l, m), _at4(p(a + b + c, e), d, _vars4(1, 2, 3)))]
    # the cyclic shifts of (a, l), (b, m), (c, n), each parameter by its index
    lines = [(a, 1), (b, 2), (c, 3)]
    for s in range(3):
        (x, u), (y, v), (z, w) = lines[s:] + lines[:s]
        terms += [
            _mul4(_at4(p(y, z), _vars4(v, w, sign=-1), _vars4(v)), _at4(J(x, y + z, e), d, _vars4(u), _vars4(v, w))),
            _mul4(_at4(p(x, y + z + e), d, _vars4(u)), _at4(J(y, z, e), _vars4(0, u), _vars4(v), _vars4(w))),
            _mul4(_MINUS_ONE4, _at4(p(x, e), _vars4(0, v, w), _vars4(u)), _at4(J(y, z, x + e), d, _vars4(v), _vars4(w))),
        ]
    assert _sum4(*terms) == {}


# -- _Scan._recurse_entry against the long division it replaced ---------------


def _forced_by_long_division(table, i, j):
    """p_{i,j} as the scan used to force it: the whole defect over d, l and m divided by
    -p_{1,i-1}(-l-m, l), kept only if the quotient is a polynomial in (d, l+m)."""
    defect = jacobi_defect(_entry_of(table, unknown=(i, j)), 1, i - 1, j).get(i + j, MultiPoly.zero())
    quotient = exact_div(defect, -table[(1, i - 1)].substitute("d", -L - M))
    if quotient is None:
        return None
    collapsed = quotient.substitute("m", MultiPoly.zero())
    if collapsed.substitute("l", L + M) != quotient:
        return None
    return -collapsed


def _lowest_slices(table, i, j):
    """(r, the l^r slice of the defect, the l^r slice of the divisor), r the least power of l in p_{1,i-1}."""
    defect = jacobi_defect(_entry_of(table, unknown=(i, j)), 1, i - 1, j).get(i + j, MultiPoly.zero())
    divisor = -table[(1, i - 1)].substitute("d", -L - M)
    r = min(key[1] for key in table[(1, i - 1)].terms)
    return r, defect.coeff_of("l", r), divisor.coeff_of("l", r)


def _forced_agrees(table, i, j):
    """_recurse_entry's entry, after asserting that it is the long division's."""
    forced = _Scan(ONE, 2)._recurse_entry(table, i, j)
    assert forced == _forced_by_long_division(table, i, j)
    return forced


_PAIRS_TO_FIVE = [(i, j) for i in range(6) for j in range(6) if i + j <= 5]
# the pairs the Jacobi identity on (1, i-1, j) forces, and those where p_{1,i+j-1}
# is read by no other term of that identity
_FORCED_TO_FIVE = [(i, j) for i, j in _PAIRS_TO_FIVE if i >= 2 and j >= 1]
_FORCED_FROM_THREE = [(i, j) for i, j in _FORCED_TO_FIVE if i >= 3]
_nonzero_small = st.sampled_from([ONE, -ONE, Scalar(2), sc("1/2"), sc("-3/4"), I, ONE + I, sc("2") - I / 2])


@st.composite
def _drawn_tables(draw, i, j):
    """A table on grades 0..5 with the entries the identity on (1, i-1, j) reads drawn, the rest zero."""
    table = dict.fromkeys(_PAIRS_TO_FIVE, MultiPoly.zero())
    for pair in ((i - 1, j), (1, i + j - 1), (1, j), (i - 1, j + 1)):
        table[pair] = draw(_small_dl_polys)
    table[(1, i - 1)] = draw(_small_dl_polys.filter(bool))
    return table


def _gauged(table, scales):
    """The table after rescaling L_i by scales[i]: p_{i,j} times s_i s_j / s_{i+j}.

    Each term of the identity on (1, i-1, j) takes the same factor, so a forced
    entry stays forced, rescaled as its pair is."""
    return {(i, j): p * (scales[i] * scales[j] / scales[i + j]) for (i, j), p in table.items()}


@st.composite
def _solvable_cases(draw, pairs=_FORCED_TO_FIVE, block_parameters=_nonzero_small):
    """(table, i, j): a table on grades 0..5 whose identity on (1, i-1, j) forces table[(i, j)].

    Either block(p) on grades 0..5, which satisfies Jacobi at every p, or, at (3, 1), a
    table with p_{1,1} = 0, p_{1,2} = c l (d+l)^k, p_{2,1} = c (-l)^k and p_{1,3} = l P(d),
    where p_{1,2}(-l-m, l) = c l (-m)^k, the defect is c (-m)^k l P(d) and the entry is
    P(d); both rescaled by a drawn gauge."""
    scales = draw(st.lists(_nonzero_small, min_size=6, max_size=6))
    if draw(st.booleans()):
        p = draw(block_parameters)
        table = {(i, j): (Scalar(i) + p) * D + (Scalar(i + j) + 2 * p) * L for i, j in _PAIRS_TO_FIVE}
        i, j = draw(st.sampled_from(pairs))
    else:
        c, k = draw(_nonzero_small), draw(st.integers(0, 3))
        P = draw(_nonzero_small) * (D + draw(_nonzero_small)) ** draw(st.integers(0, 2))
        table = dict.fromkeys(_PAIRS_TO_FIVE, MultiPoly.zero())
        # p_{2,2} is read only times p_{1,1} = 0
        table.update({
            (1, 2): c * L * (D + L) ** k, (2, 1): c * (-L) ** k, (1, 3): L * P, (3, 1): P,
            (2, 2): draw(_small_dl_polys),
        })
        i, j = 3, 1
    assume(table[(1, i - 1)])
    return _gauged(table, scales), i, j


@settings(max_examples=60, deadline=None)
@given(_solvable_cases(_FORCED_FROM_THREE, st.just(-ONE)), _small_dl_polys, st.booleans())
def test_forced_entry_is_the_long_divisions_on_a_row_one_entry_divisible_by_l(case, h, solvable):
    # the shape l*h that row one takes at a_1 = 1 and k >= 2, where the
    # lowest power of l in p_{1,i-1} is r >= 1: p_{1,i-1} = (i-2) l in
    # block(-1) and c l (d+l)^k in the (3, 1) table, which force an entry,
    # and l*h on a drawn table, which mostly forces none
    table, i, j = case
    if solvable:
        assert _forced_agrees(table, i, j) == table[(i, j)]
    else:
        assume(h)
        table = {**table, (1, i - 1): L * h}
        _forced_agrees(table, i, j)
    assert _lowest_slices(table, i, j)[0] >= 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_FORCED_TO_FIVE), st.booleans(), st.data())
def test_forced_entry_is_the_long_divisions_where_the_slice_does_not_divide(pair, times_l, data):
    i, j = pair
    table = data.draw(_drawn_tables(i, j))
    if times_l:
        table[(1, i - 1)] = L * table[(1, i - 1)]
    _, defect_slice, divisor_slice = _lowest_slices(table, i, j)
    assume(exact_div(defect_slice, divisor_slice) is None)
    assert _forced_agrees(table, i, j) is None


@settings(max_examples=60, deadline=None)
@given(_solvable_cases(_FORCED_FROM_THREE), _small_dl_polys)
def test_forced_entry_is_the_long_divisions_where_the_slice_divides_but_the_identity_fails(case, delta):
    # p_{1,i+j-1} gains l^{r+1} delta: the defect gains p_{i-1,j}(d+l, m) l^{r+1}
    # delta(d, l), which leaves its l^r slice, and so the one candidate, alone
    table, i, j = case
    assume(delta and table[(i - 1, j)])
    r, _, _ = _lowest_slices(table, i, j)
    table = {**table, (1, i + j - 1): table[(1, i + j - 1)] + L ** (r + 1) * delta}
    _, defect_slice, divisor_slice = _lowest_slices(table, i, j)
    assert exact_div(defect_slice, divisor_slice) is not None
    assert _forced_agrees(table, i, j) is None


def _candidates_at_every_degree_to_eight(self, target, k, diagonal):
    """_candidates before the degree-offset row and the step bound: a zero target solves at each degree 0..8."""
    a_prev = _offset_delta_j(self.a1, target, k)  # the step a_prev -> target has degree k
    key = (a_prev, target, k, diagonal)
    if key not in self._solver_cache:
        degrees = range(9) if target.is_zero() else (k,)
        extra = (_skew_condition,) if diagonal else ()
        basis = []
        for t in degrees:
            inst = FuncEqInstance(self.a1, ZERO, target, ZERO, a_prev, ZERO, t, homogeneous_degree=t)
            basis.extend(_solve_by_matching(inst, _defect_intertwiner, extra).basis)
        self._solver_cache[key] = tuple(basis)
    return self._solver_cache[key]


@pytest.mark.parametrize("horizon", [8, 12])
def test_scan_matches_the_candidates_at_every_degree_to_four(monkeypatch, horizon):
    # the oracle adds the zero-target step past degree 3 that the scan
    # dropped before the proof in _Scan._candidates, and solves every
    # zero-target step at each degree to 8
    grid = default_grid(12, Fraction(0), Fraction(3))
    one = scan_grid(grid, horizon)
    zero_steps = []
    steps = _Scan._steps

    def with_the_zero_target(self, a_prev):
        label = (self.a1 + a_prev - ONE).as_int()
        beyond = [(label, ZERO)] if label is not None and label > _MAX_STEP_DEGREE else []
        return steps(self, a_prev) + beyond

    def recording(self, target, k, diagonal):
        if target.is_zero():
            zero_steps.append(k)
        return _candidates_at_every_degree_to_eight(self, target, k, diagonal)

    monkeypatch.setattr(_Scan, "_steps", with_the_zero_target)
    monkeypatch.setattr(_Scan, "_candidates", recording)
    oracle = scan_grid(grid, horizon)
    assert [r.to_dict() for r in one] == [r.to_dict() for r in oracle]
    assert [r.table for r in one] == [r.table for r in oracle]
    # the oracle searched zero-target steps the scan never tries, past degree 4
    assert min(zero_steps) <= _MAX_STEP_DEGREE < 4 < max(zero_steps)


# -- _Scan._extend against the force-and-compare it replaced --------------------


def _force_and_compare_extend(self, table, h, target, p1j):
    """_Scan._extend before its check on (1, h-2, 1): p_{h-1,1} forced from that
    identity like every other entry, and kept only if it equals the skew image of
    p_{1,h-1}."""
    table = dict(table)
    table[(0, h)] = D + target * L
    table[(h, 0)] = skew_image(table[(0, h)])
    table[(1, h - 1)] = p1j
    if h - 1 != 1:
        table[(h - 1, 1)] = skew_image(p1j)
    for i in range(2, h):
        p = self._recurse_entry(table, i, h - i)
        if p is None or table.setdefault((i, h - i), p) != p:
            return None
    return table


class _ComparingScan(_Scan):
    """A scan whose every _extend is asserted to be the force-and-compare's."""

    def _extend(self, table, h, target, p1j):
        out = super()._extend(table, h, target, p1j)
        assert out == _force_and_compare_extend(self, table, h, target, p1j), (self.a1, h)
        return out


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=-3, max_value=6, max_denominator=12), st.integers(3, 10))
def test_extend_is_the_force_and_compare_on_drawn_slopes_and_grades(a1, horizon):
    assert _ComparingScan(Scalar(a1), horizon).run().to_dict() == scan_a1(a1, horizon).to_dict()


def _rendered_scan(grid, horizon):
    return [
        (r.to_dict(), r.table and [f"p_{{{i},{j}}} = {p.render()}" for (i, j), p in sorted(r.table.items())])
        for r in scan_grid(grid, horizon)
    ]


@pytest.mark.parametrize("horizon", [8, 12])
def test_scan_matches_the_force_and_compare_with_its_witness_tables(monkeypatch, horizon):
    grid = default_grid(12, Fraction(-3), Fraction(6))
    checked = _rendered_scan(grid, horizon)
    monkeypatch.setattr(_Scan, "_extend", _force_and_compare_extend)
    assert checked == _rendered_scan(grid, horizon)
    assert sum(r["admissible"] for r, _ in checked) >= 2


def test_extend_forces_no_entry_of_column_one(monkeypatch):
    # p_{h-1,1} stays the skew image of p_{1,h-1}: no grade asks
    # _recurse_entry for it, and the check on (1, h-2, 1) stands in
    pairs = []
    recurse = _Scan._recurse_entry

    def recording(self, table, i, j):
        pairs.append((i, j))
        return recurse(self, table, i, j)

    monkeypatch.setattr(_Scan, "_recurse_entry", recording)
    scan_grid(default_grid(6), 10)
    assert pairs and all(j >= 2 for _, j in pairs)


def test_a_grade_with_every_entry_forced_can_fail_the_check(monkeypatch):
    # a_1 = 2 along a_2 = a_3 = 2 (steps of degree 1), then the degree-0 step
    # to a_4 = 3 with p_{1,3} = 1: p_{2,2} is forced, but J(1, 2, 1) does not
    # vanish with p_{3,1} the skew image of p_{1,3}
    scan = _Scan(Scalar(2), 8)
    table = scan._initial_table()
    for h in (2, 3):
        [p1j] = scan._candidates(Scalar(2), 1, diagonal=(h == 2))
        table = scan._extend(table, h, Scalar(2), p1j)
    [p13] = scan._candidates(Scalar(3), 0, diagonal=False)
    assert p13 == MultiPoly.one()
    assert _force_and_compare_extend(scan, table, 4, Scalar(3), p13) is None
    forced, defects = [], []
    recurse, defect = _Scan._recurse_entry, grading.jacobi_defect

    def recording_entry(self, table, i, j):
        forced.append(((i, j), recurse(self, table, i, j)))
        return forced[-1][1]

    def recording_defect(entry, x, y, z):
        defects.append(((x, y, z), defect(entry, x, y, z)))
        return defects[-1][1]

    monkeypatch.setattr(_Scan, "_recurse_entry", recording_entry)
    monkeypatch.setattr(grading, "jacobi_defect", recording_defect)
    assert scan._extend(table, 4, Scalar(3), p13) is None
    assert [pair for pair, p in forced if p is not None] == [(2, 2)]
    (triple, last) = defects[-1]
    assert triple == (1, 2, 1) and last


def test_default_grid_contents():
    values = {str(v) for v in default_grid()}
    assert values == {
        "1", "7/6", "6/5", "5/4", "4/3", "7/5", "3/2",
        "8/5", "5/3", "7/4", "9/5", "11/6", "2",
    }


def _default_grid_by_hand(max_denominator, lo, hi):
    """default_grid as it was written: each numerator from floor(lo * den) up, filtered."""
    values = set()
    for den in range(1, max_denominator + 1):
        num = den * lo.numerator // lo.denominator
        while Fraction(num, den) <= hi:
            if Fraction(num, den) >= lo:
                values.add(Fraction(num, den))
            num += 1
    return [Scalar(v) for v in sorted(values)]


_bounds = st.fractions(min_value=-4, max_value=4, max_denominator=7)


@given(st.integers(1, 12), _bounds, _bounds, st.booleans())
def test_default_grid_is_the_loop_by_hand(n, lo, hi, equal):
    # negative, fractional, equal and reversed bounds
    if equal:
        hi = lo
    assert default_grid(n, lo, hi) == _default_grid_by_hand(n, lo, hi)


def test_step_bound_is_the_tables_top_degree():
    assert _MAX_STEP_DEGREE == max(row.k for row in TABLE_ROWS) == 3
    # degrees 0..3 at every a_prev, integer labels past 3 included: no
    # zero-target step past the table (see _Scan._candidates)
    scan = _Scan(sc(2), 4)
    for a_prev in (sc(-5), ZERO, sc("1/2"), sc(3), sc(4), sc(30), sc("7/3")):
        assert [k for k, _ in scan._steps(a_prev)] == [0, 1, 2, 3]


# -- the proof in _Scan._candidates: no row-one step past degree 3 -------------
#
# delta_j is the degree-offset row's delta_i + k + 1 - a throughout, E is
# funceq._defect_intertwiner, and l F = (d+l)^k (d + delta_i l) - (d + delta_j l) d^k.


def _offset_delta_j(a, delta_i, k):
    return delta_i + sc(k + 1) - a


def _E(a, delta_i, k, f):
    return _defect_intertwiner(FuncEqInstance(a, ZERO, delta_i, ZERO, _offset_delta_j(a, delta_i, k), ZERO, k), f)


def _F(a, delta_i, k):
    delta_j = _offset_delta_j(a, delta_i, k)
    return exact_div((D + L) ** k * (D + delta_i * L) - (D + delta_j * L) * D**k, L)


def _coeff(p, d, l, m):
    return p.terms.get((d, l, m), ZERO)


def _phi(k, s):
    return Fraction(s, k + 1 - s) + Fraction(k - s, s + 1)


def _zero_target_root(k, s):
    """The a at which the d l^{k-s} m^s coefficient of E(F) vanishes at delta_i = 0."""
    return 1 + Fraction(comb(k - 1, s - 1) + comb(k, s + 1), comb(k - 1, s))


def _monomials_of_degree(k):
    return [D**p * L ** (k - p) for p in range(k + 1)]


_A_OFF_ONE = (ZERO, sc("7/3"), sc(-2), sc("1/2"))
_NONZERO_DELTAS = (ONE, sc("-2/5"), sc(3))


@pytest.mark.parametrize("k", range(7))
def test_lemma_c_the_defect_at_m_zero(k):
    # E(f)(d, l, 0) = (a - 1) l f - c l F, with c the d^k coefficient of f
    for a in (*_A_OFF_ONE, ONE):
        for delta_i in (ZERO, *_NONZERO_DELTAS):
            lF = L * _F(a, delta_i, k)
            for f in _monomials_of_degree(k):
                c = f.terms.get((k, 0, 0), ZERO)
                at_m_zero = _E(a, delta_i, k, f).substitute("m", MultiPoly.zero())
                assert at_m_zero == (a - ONE) * L * f - lF * c


# (a, delta_i, k) off a = 1 where a solution exists: the rows of the table
# at k <= 3, and the zero target at k = 3, which needs a = 3
_SOLVED_OFF_A_ONE = [
    (sc(3), sc(-2), 0), (sc("1/2"), ZERO, 0), (sc(3), sc(-2), 1), (sc(-1), ZERO, 1),
    (sc(3), ONE, 2), (sc(2), ZERO, 2), (sc("5/3"), sc("-2/3"), 3), (sc(3), ZERO, 3),
]


@pytest.mark.parametrize("a, delta_i, k", _SOLVED_OFF_A_ONE)
def test_lemma_c_a_solution_off_a_one_is_a_multiple_of_F(a, delta_i, k):
    basis = solve_homogeneous(a, delta_i, _offset_delta_j(a, delta_i, k), k).basis
    assert len(basis) == 1 and _proportional(basis[0], _F(a, delta_i, k))
    assert _E(a, delta_i, k, _F(a, delta_i, k)).is_zero()


@pytest.mark.parametrize("k", range(9))
def test_lemma_c_dimension_at_most_one_off_a_one(k):
    for a in _A_OFF_ONE:
        for delta_i in (ZERO, *_NONZERO_DELTAS, a - sc(2)):
            basis = solve_homogeneous(a, delta_i, _offset_delta_j(a, delta_i, k), k).basis
            assert len(basis) <= 1
            assert all(_proportional(f, _F(a, delta_i, k)) for f in basis)


@pytest.mark.parametrize("k", range(4, 13))
def test_the_d_zero_slice_at_a_nonzero_delta_i(k):
    # the l^{k+1-s} m^s coefficient of E(F) is delta_i C(k, s) [(a - 1 - delta_i) - phi(s)]
    for a in _A_OFF_ONE:
        for delta_i in _NONZERO_DELTAS:
            defect = _E(a, delta_i, k, _F(a, delta_i, k))
            for s in range(1, k):
                expected = delta_i * sc(comb(k, s)) * (a - ONE - delta_i - sc(_phi(k, s)))
                assert _coeff(defect, 0, k + 1 - s, s) == expected, s


@pytest.mark.parametrize("k", range(4, 13))
def test_the_linear_in_d_coefficients_at_a_zero_target(k):
    # the d l^{k-s} m^s coefficient of E(F) is (a-1) C(k-1, s) - C(k-1, s-1) - C(k, s+1)
    for a in _A_OFF_ONE:
        defect = _E(a, ZERO, k, _F(a, ZERO, k))
        for s in range(1, k - 1):
            expected = (a - ONE) * sc(comb(k - 1, s)) - sc(comb(k - 1, s - 1) + comb(k, s + 1))
            assert _coeff(defect, 1, k - s, s) == expected, s
            assert expected.is_zero() == (a == sc(_zero_target_root(k, s)))


def test_the_zero_target_at_degree_four():
    # the s = 1 and s = 2 coefficients are both 3a - 10, and the d^2 l^2 m one is 2(4a - 15)
    for a in (*_A_OFF_ONE, sc("10/3"), sc("15/4")):
        defect = _E(a, ZERO, 4, _F(a, ZERO, 4))
        assert _coeff(defect, 1, 3, 1) == _coeff(defect, 1, 2, 2) == sc(3) * a - sc(10)
        assert _coeff(defect, 2, 2, 1) == sc(2) * (sc(4) * a - sc(15))


def test_the_closed_forms_do_not_vanish_past_degree_three():
    for k in range(4, 201):
        gap = _phi(k, 1) - _phi(k, 2)
        assert gap == Fraction((k - 3) * (k + 1) * (k + 2), 6 * k * (k - 1)) != 0
        assert _zero_target_root(k, 1) == 1 + Fraction(1, k - 1) + Fraction(k, 2)
        assert _zero_target_root(k, 2) == 1 + Fraction(2, k - 2) + Fraction(k, 3)
        root_gap = _zero_target_root(k, 1) - _zero_target_root(k, 2)
        assert root_gap == Fraction(k * (k - 4) * (k + 1), 6 * (k - 2) * (k - 1))
        assert (root_gap != 0) == (k >= 5)


@pytest.mark.parametrize("k", range(2, 9))
def test_at_a_one_a_solution_is_l_times_one_at_a_zero(k):
    delta_j = lambda delta_i: _offset_delta_j(ONE, delta_i, k)  # noqa: E731
    for delta_i in (ZERO, sc(-2), ONE, sc("-7/3"), sc("5/2")):
        # the l^{k+1} and d^{k-1} l^2 coefficients of l F force c = 0
        lF = L * _F(ONE, delta_i, k)
        assert _coeff(lF, 0, k + 1, 0) == delta_i
        assert _coeff(lF, k - 1, 2, 0) == sc(comb(k, 2)) + sc(k) * delta_i
        # the offset of degree k at a = 1 is that of degree k - 1 at a = 0
        assert delta_j(delta_i) == _offset_delta_j(ZERO, delta_i, k - 1)
        for h in _monomials_of_degree(k - 1):
            at_zero = _defect_intertwiner(FuncEqInstance(ZERO, ZERO, delta_i, ZERO, delta_j(delta_i), ZERO, k - 1), h)
            assert _E(ONE, delta_i, k, L * h) == M * at_zero
        at_one = solve_homogeneous(ONE, delta_i, delta_j(delta_i), k).basis
        at_zero = solve_homogeneous(ZERO, delta_i, delta_j(delta_i), k - 1).basis
        assert len(at_one) == len(at_zero) <= 1
        assert all(_proportional(f, L * h) for f, h in zip(at_one, at_zero))


@pytest.mark.parametrize("k", range(4, 13))
def test_no_solution_past_degree_three_at_the_near_misses(k):
    # where one of the coefficients the proof reads vanishes, another does not
    points = [(a, a - ONE - sc(_phi(k, s))) for a in _A_OFF_ONE for s in (1, 2)]
    points += [(sc(_zero_target_root(k, s)), ZERO) for s in (1, 2)]
    points += [(sc("10/3"), ZERO), (sc("15/4"), ZERO)]
    points += [(ONE, delta_i) for delta_i in (ZERO, sc(-2), ONE, sc("-7/3"), sc(-k))]
    for a, delta_i in points:
        assert solve_homogeneous(a, delta_i, _offset_delta_j(a, delta_i, k), k).dimension == 0, (a, delta_i)


def test_the_degree_three_near_miss_of_the_a_one_reduction():
    # at (a, delta_i) = (0, -7/3) both d = 0 coefficients vanish, and E(F) is 10/3 d l^2 m
    a, delta_i = ZERO, sc("-7/3")
    assert a - ONE - delta_i == sc(_phi(3, 1)) == sc(_phi(3, 2)) == sc("4/3")
    assert _E(a, delta_i, 3, _F(a, delta_i, 3)) == sc("10/3") * D * L**2 * M
    assert solve_homogeneous(a, delta_i, _offset_delta_j(a, delta_i, 3), 3).dimension == 0
    # the zero target at degree 3 needs a = 3
    assert _zero_target_root(3, 1) == 3
    assert solve_homogeneous(ZERO, ZERO, _offset_delta_j(ZERO, ZERO, 3), 3).dimension == 0


def test_the_one_plane_of_solutions_is_cut_to_a_line_by_skew():
    # (a, delta_i, delta_j, k) = (1, 0, 1, 1) has basis d, l; the scan meets
    # it only at a_1 = 1 and depth 1, where skew leaves d/2 + l
    assert solve_homogeneous(ONE, ZERO, ONE, 1).basis == (D, L)
    assert _Scan(ONE, 4)._candidates(ZERO, 1, diagonal=True) == (sc("1/2") * D + L,)


@pytest.mark.parametrize("grid, horizon", [
    (default_grid(12, Fraction(0), Fraction(3)), 10),
    (default_grid(12, Fraction(-3), Fraction(0)), 8),
])
def test_no_step_has_two_candidates(monkeypatch, grid, horizon):
    sizes = []
    candidates = _Scan._candidates

    def recording(self, target, k, diagonal):
        out = candidates(self, target, k, diagonal)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(_Scan, "_candidates", recording)
    scan_grid(grid, horizon)
    assert max(sizes) == 1 and sizes.count(1) > 100


# -- the row-one candidates from Lemma C's closed form ---------------------------
#
# Off a_1 = 1 the scan solves nothing: it checks F against the conditions
# funceq._lemma_c_conditions interpolates, and scales F as nullspace would.


def _solved_candidates(a1, a_prev, target, k, diagonal):
    """_candidates by one exact solve per step: the reference the closed form must match."""
    inst = FuncEqInstance(a1, ZERO, target, ZERO, a_prev, ZERO, k, homogeneous_degree=k)
    extra = (_skew_condition,) if diagonal else ()
    return _solve_by_matching(inst, _defect_intertwiner, extra).basis


_small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_slopes_off_one = st.builds(
    Scalar, _small_fractions, st.one_of(st.just(Fraction(0)), _small_fractions)
).filter(lambda a: a != ONE)


def _condition_polys(k):
    """_lemma_c_conditions(k) as polynomials, with a written as d and delta_i as l."""
    return [
        MultiPoly({(*_AD_MONOMIALS[index], 0): c for index, c in condition})
        for condition in _lemma_c_conditions(k)
    ]


def _on_one_condition(k, index, delta_i):
    """The a != 1 where condition `index` of degree k vanishes at delta_i, if it is one a."""
    p = _condition_polys(k)[index].substitute("l", MultiPoly.const(delta_i))
    slope, const = p.terms.get((1, 0, 0), ZERO), p.terms.get((0, 0, 0), ZERO)
    if p.total_degree() == 1 and p.degree_in("d") == 1 and -const / slope != ONE:
        return -const / slope
    return None


@st.composite
def _steps_off_a_one(draw):
    """(a_1, target, k): anywhere, on the k = 2 and k = 3 loci where F solves,
    or on the zero set of one condition of degree 2 or 3 alone."""
    where = draw(st.sampled_from(("anywhere", "k = 2", "k = 3", "one condition")))
    if where == "k = 3":
        a1, target = draw(st.sampled_from(((sc("5/3"), sc("-2/3")), (sc(3), ZERO))))
        return a1, target, 3
    if where == "one condition":
        k = draw(st.integers(2, 3))
        index = draw(st.integers(0, len(_lemma_c_conditions(k)) - 1))
        target = draw(_slopes_off_one)
        a1 = _on_one_condition(k, index, target)
        assume(a1 is not None)
        return a1, target, k
    a1 = draw(_slopes_off_one)
    if where == "k = 2":
        return a1, draw(st.sampled_from((ZERO, a1 - sc(2)))), 2
    return a1, draw(_slopes_off_one), draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(_steps_off_a_one(), st.booleans())
def test_closed_form_candidates_are_the_solvers(step, diagonal):
    a1, target, k = step
    a_prev = _offset_delta_j(a1, target, k)  # the step a_prev -> target has degree k
    assert _Scan(a1, 4)._candidates(target, k, diagonal) == _solved_candidates(
        a1, a_prev, target, k, diagonal
    )


_rationals_and_gaussians = st.builds(Scalar, _small_fractions, st.one_of(st.just(Fraction(0)), _small_fractions))


@st.composite
def _rule_points(draw):
    """(a, delta_i, k), a != 1 rational or Gaussian: delta_i drawn, zero, on the
    k = 2 locus delta_i = a - 2, or one of the k = 3 points (5/3, -2/3) and (3, 0)."""
    k = draw(st.integers(0, 6))
    if draw(st.integers(0, 4)) == 0:
        a, delta_i = draw(st.sampled_from(((sc("5/3"), sc("-2/3")), (sc(3), ZERO))))
        return a, delta_i, k
    a = draw(_slopes_off_one)
    return a, draw(st.one_of(st.just(ZERO), st.just(a - sc(2)), _rationals_and_gaussians)), k


@settings(max_examples=200, deadline=None)
@given(_rule_points(), st.booleans())
def test_lemma_c_rule_at_each_delta_is_the_homogeneous_solve(point, diagonal):
    # one rule per (a, k), as the scan builds it, evaluated at the drawn
    # delta_i; on the diagonal both sides add _skew_condition
    a, delta_i, k = point
    basis = _lemma_c_rule(a, k).basis(delta_i)
    delta_j = _offset_delta_j(a, delta_i, k)
    if diagonal:
        if basis and _skew_condition(basis[0]):
            basis = ()
        assert basis == _solved_candidates(a, delta_j, delta_i, k, diagonal)
    else:
        assert basis == solve_homogeneous(a, delta_i, delta_j, k).basis


def _conditions_vanish(a, delta_i, k):
    return all(p.substitute("d", MultiPoly.const(a)).substitute("l", MultiPoly.const(delta_i)).is_zero()
               for p in _condition_polys(k))


def test_lemma_c_conditions_are_pinned():
    # k = 0, 1: F always solves
    assert _lemma_c_conditions(0) == _lemma_c_conditions(1) == ()
    # k = 2: the zero set delta_i (delta_i - a + 2) = 0
    (quadric,) = _condition_polys(2)
    assert _proportional(quadric, L * (L - D + sc(2)))
    # k = 3: on delta_i (delta_i - a + 7/3) = 0, the other condition is linear
    # in a, with its root at a = 3 where delta_i = 0 and at a = 5/3 on the other line
    first, second = _condition_polys(3)
    assert _proportional(second, L * (L - D + sc("7/3")))
    assert _proportional(first.substitute("l", MultiPoly.zero()), D - sc(3))
    assert _proportional(first.substitute("l", D - sc("7/3")), D - sc("5/3"))
    # past the table the constant 1 is in the span: no zero at all
    for k in (4, 5, 6):
        assert MultiPoly.one() in _condition_polys(k)


_GRID_NODES = {ZERO, ONE, sc(2)}


def _off_grid_points(count=12):
    """Seeded points (a, delta_i) off the interpolation grid; every third one Gaussian."""
    rng = random.Random(2026)

    def value(gaussian):
        im = Fraction(rng.choice((-2, -1, 1, 2)), 3) if gaussian else 0
        return Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)), im)

    points = []
    while len(points) < count:
        gaussian = len(points) % 3 == 0
        a, delta_i = value(gaussian), value(gaussian)
        if not (a in _GRID_NODES and delta_i in _GRID_NODES):
            points.append((a, delta_i))
    return points


# points on the loci of k = 2 and k = 3, none on the interpolation grid
_LOCUS_POINTS = [(sc("7/2"), ZERO), (sc("-3", 1), sc("-5", 1)), (sc("5/3"), sc("-2/3")), (sc(3), ZERO)]


@pytest.mark.parametrize("k", range(7))
def test_lemma_c_conditions_vanish_exactly_where_F_solves(k):
    points = _off_grid_points() + _LOCUS_POINTS
    assert sum(1 for a, _ in points if not a.is_real()) == 5
    solves = []
    for a, delta_i in points:
        F = _F(a, delta_i, k)
        assert _lemma_c_solution(a, delta_i, k) == F
        solves.append(_E(a, delta_i, k, F).is_zero())
        assert _conditions_vanish(a, delta_i, k) == solves[-1], (a, delta_i)
        if a != ONE:
            assert bool(_lemma_c_rule(a, k).basis(delta_i)) == solves[-1], (a, delta_i)
    assert any(solves) == (k <= 3)
