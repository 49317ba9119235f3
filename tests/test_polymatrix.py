import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from lieconformal import polymatrix
from lieconformal.polymatrix import (
    PolyMatrix,
    SmithDecomposition,
    _dense,
    _divmod,
    _poly,
    _sub_mul,
    determinant,
    matmul,
    smith_normal_form,
    torsion_split,
)
from lieconformal.poly import D, MultiPoly, divmod_univar
from lieconformal.scalars import ONE, Scalar

ONE_P = MultiPoly.one()
ZERO_P = MultiPoly.zero()


def test_already_diagonal_with_chain():
    Mx = PolyMatrix.diagonal([D, D * D])
    snf = smith_normal_form(Mx)
    assert snf.D == Mx
    assert matmul(matmul(snf.U, Mx), snf.V) == snf.D


def test_unit_and_square_invariant():
    Mx = PolyMatrix([[D, ONE_P], [ZERO_P, D]])
    snf = smith_normal_form(Mx)
    # oracle: the determinant is d^2 and the entry gcd is a unit, so the
    # invariants must be (1, d^2)
    assert determinant(Mx) == D * D
    assert snf.invariants == [ONE_P, D * D]
    assert matmul(matmul(snf.U, Mx), snf.V) == snf.D


def test_zero_matrix():
    Mx = PolyMatrix([[ZERO_P, ZERO_P], [ZERO_P, ZERO_P]])
    snf = smith_normal_form(Mx)
    assert snf.D == Mx
    assert determinant(snf.U).constant_value() is not None
    assert determinant(snf.V).constant_value() is not None


def _random_matrix(rng: random.Random) -> PolyMatrix:
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
    return PolyMatrix(rows)


def _is_unit(p: MultiPoly) -> bool:
    c = p.constant_value()
    return c is not None and not c.is_zero()


def test_smith_form_on_100_random_matrices():
    rng = random.Random(20260810)
    for _ in range(100):
        Mx = _random_matrix(rng)
        snf = smith_normal_form(Mx)
        assert matmul(matmul(snf.U, Mx), snf.V) == snf.D
        assert _is_unit(determinant(snf.U))
        assert _is_unit(determinant(snf.V))
        n, m = snf.D.shape
        for r in range(n):
            for c in range(m):
                if r != c:
                    assert snf.D[r, c].is_zero()
        invs = snf.invariants
        from lieconformal.poly import divmod_univar

        for a, b in zip(invs, invs[1:]):
            if b.is_zero():
                continue
            assert not a.is_zero()
            _, rem = divmod_univar(b, a)
            assert rem.is_zero()
        for p in invs:
            if not p.is_zero():
                lead_key = max(p.terms, key=lambda k: k[0])
                assert p.terms[lead_key] == Scalar(1)


def test_torsion_split_examples():
    assert torsion_split(PolyMatrix.diagonal([ONE_P, ONE_P, ZERO_P])) == (1, [])
    fr, tor = torsion_split(PolyMatrix([[D + ONE_P]]))
    assert fr == 0 and tor == [D + ONE_P]
    fr, tor = torsion_split(PolyMatrix([[D, ONE_P], [ZERO_P, D]]))
    assert fr == 0 and tor == [D * D]


def test_torsion_split_tall_presentation():
    # three generators, one relation d*e1: one torsion line plus two free
    Mx = PolyMatrix([[D], [ZERO_P], [ZERO_P]])
    fr, tor = torsion_split(Mx)
    assert fr == 2 and tor == [D]


def test_determinism_of_pivoting():
    Mx = PolyMatrix([[D * D, D], [D, ONE_P + D]])
    first = smith_normal_form(Mx)
    second = smith_normal_form(Mx)
    assert first.D == second.D and first.U == second.U and first.V == second.V


def _cofactor_det(rows) -> MultiPoly:
    """Oracle: the n!-term cofactor expansion along the first row."""
    if not rows:
        return ONE_P
    acc = ZERO_P
    for c, top in enumerate(rows[0]):
        if not top.is_zero():
            term = top * _cofactor_det([row[:c] + row[c + 1:] for row in rows[1:]])
            acc = acc + (term if c % 2 == 0 else -term)
    return acc


_small = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))


def _polys(max_degree):
    return st.lists(_small, min_size=1, max_size=max_degree + 1).map(
        lambda cs: MultiPoly({(e, 0, 0): c for e, c in enumerate(cs) if not c.is_zero()})
    )


@st.composite
def _poly_matrices(draw, max_size, max_degree, square=False):
    n = draw(st.integers(1, max_size))
    m = n if square else draw(st.integers(1, max_size))
    entry = _polys(max_degree)
    rows = [[draw(entry) for _ in range(m)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # a multiple of the first row: rank-deficient
        f = draw(entry)
        rows[-1] = [f * x for x in rows[0]]
    return PolyMatrix(rows)


@settings(deadline=None)
@given(_poly_matrices(4, 2, square=True))
def test_determinant_matches_cofactor_expansion(Mx):
    assert determinant(Mx) == _cofactor_det([list(r) for r in Mx.rows])


def _monic(p: MultiPoly) -> MultiPoly:
    if p.is_zero():
        return p
    return p * (ONE / p.terms[(p.degree_in("d"), 0, 0)])


def _gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    while not b.is_zero():
        a, b = b, divmod_univar(a, b)[1]
    return _monic(a)


@settings(deadline=None)
@given(_poly_matrices(3, 2))
def test_invariant_factors_are_quotients_of_minor_gcds(Mx):
    # d_k, the monic gcd of the k x k minors, is d_1 ... d_k of the Smith form
    n, m = Mx.shape
    invs = smith_normal_form(Mx).invariants
    prev = ONE_P
    for k in range(1, min(n, m) + 1):
        d_k = ZERO_P
        for rows in combinations(range(n), k):
            for cols in combinations(range(m), k):
                d_k = _gcd(d_k, _cofactor_det([[Mx[r, c] for c in cols] for r in rows]))
        if d_k.is_zero():
            assert invs[k - 1].is_zero()
        else:
            q, rem = divmod_univar(d_k, prev)
            assert rem.is_zero() and invs[k - 1] == q
        prev = d_k


def _coefficient_bits(Mx: PolyMatrix) -> int:
    return max(
        max(abs(part.numerator).bit_length(), part.denominator.bit_length())
        for row in Mx.rows
        for p in row
        for c in p.terms.values()
        for part in (c.re, c.im)
    )


def test_dense_quintic_size_smith_form_keeps_transforms_small():
    # a dense 5x5 matrix of cubics with one-digit integer coefficients; the
    # Euclidean steps alone gave transforms of 6,000 to 7,000-bit coefficients
    rng = random.Random(15)
    digit = [c for c in range(-9, 10) if c]
    Mx = PolyMatrix([
        [MultiPoly({(e, 0, 0): Scalar(rng.choice(digit)) for e in range(4)}) for _ in range(5)]
        for _ in range(5)
    ])
    snf = smith_normal_form(Mx)
    assert matmul(matmul(snf.U, Mx), snf.V) == snf.D
    assert snf.D == PolyMatrix.diagonal([ONE_P] * 4 + [_monic(determinant(Mx))])
    assert _is_unit(determinant(snf.U))
    assert _is_unit(determinant(snf.V))
    assert max(_coefficient_bits(snf.U), _coefficient_bits(snf.V)) <= 400


_part = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_real = st.builds(Scalar, _part)
_gaussian = st.builds(Scalar, _part, _part)


def _dense_polys(coefficient, max_degree=3):
    # an empty list is the zero polynomial; zero coefficients drop out
    return st.lists(coefficient, max_size=max_degree + 1).map(
        lambda cs: MultiPoly({(e, 0, 0): c for e, c in enumerate(cs)})
    )


_I = Scalar(0, 1)


def _kernel_polys(max_degree):
    return _dense_polys(_real, max_degree) | _dense_polys(_gaussian, max_degree)


@settings(deadline=None)
@given(_kernel_polys(4), _kernel_polys(2), _kernel_polys(4))
@example(D * D + ONE_P, ONE_P * (2 + _I), D)  # Gaussian constant multiplier
@example(D * (1 + _I) + ONE_P, D - 2, D * D * Scalar(Fraction(3, 2)) + ONE_P)  # real c and b
@example(D * D * D + ONE_P, D + ONE_P, D * D * Scalar(Fraction(3, 2), 2) + D)  # Gaussian lead
@example(D * D * D + ONE_P, ONE_P, ONE_P * Scalar(Fraction(-3, 4), 1))  # constant divisor
@example(D + ONE_P, ONE_P, D * D * D + D)  # dividend below the divisor's degree
@example(ZERO_P, ONE_P, D + ONE_P)  # zero dividend
@example(D + ONE_P, ZERO_P, D)  # zero multiplier
def test_dense_kernel_matches_multipoly_arithmetic(a, c, b):
    da, dc, db = _dense(a), _dense(c), _dense(b)
    assert _poly(da) == a
    # a - c*b, as a polynomial and as the one canonical triple of it
    assert _sub_mul(da, dc, db) == _dense(a - c * b)
    assert _poly(_sub_mul(da, dc, db)) == a - c * b
    if not b.is_zero():
        quotient, remainder = divmod_univar(a, b)
        assert quotient * b + remainder == a
        assert remainder.is_zero() or remainder.degree_in("d") < b.degree_in("d")
        assert _divmod(da, db) == (_dense(quotient), _dense(remainder))


def _reference_smith(Mx: PolyMatrix) -> SmithDecomposition:
    """Oracle: the same Smith form on MultiPoly entries and Scalar arithmetic."""

    def degree(p):
        return p.degree_in("d")

    def lead(p):
        return p.terms[(degree(p), 0, 0)]

    def find_pivot(work, t, n, m):
        best = None
        for r in range(t, n):
            for c in range(t, m):
                p = work[r][c]
                if p.is_zero():
                    continue
                deg = degree(p)
                if best is None or deg < best[0]:
                    best = (deg, r, c)
        return best

    n, m = Mx.shape
    work = [list(r) for r in Mx.rows]
    U = [list(r) for r in PolyMatrix.identity(n).rows]
    V = [list(r) for r in PolyMatrix.identity(m).rows]

    def row_op(dst, src, q):
        work[dst] = [a - q * b for a, b in zip(work[dst], work[src])]
        U[dst] = [a - q * b for a, b in zip(U[dst], U[src])]

    def col_op(dst, src, q):
        for r in range(n):
            work[r][dst] = work[r][dst] - q * work[r][src]
        for r in range(m):
            V[r][dst] = V[r][dst] - q * V[r][src]

    def swap_rows(a, b):
        work[a], work[b] = work[b], work[a]
        U[a], U[b] = U[b], U[a]

    def swap_cols(a, b):
        for r in range(n):
            work[r][a], work[r][b] = work[r][b], work[r][a]
        for r in range(m):
            V[r][a], V[r][b] = V[r][b], V[r][a]

    def scale_row(r, c):
        work[r] = [c * x for x in work[r]]
        U[r] = [c * x for x in U[r]]

    h = 0
    for c in range(m):
        if h == n:
            break
        while True:
            live = [r for r in range(h, n) if not work[r][c].is_zero()]
            if not live:
                break
            pr = min(live, key=lambda r: degree(work[r][c]))
            if pr != h:
                swap_rows(h, pr)
            if len(live) == 1:
                break
            for r in range(h + 1, n):
                if not work[r][c].is_zero():
                    q, _ = divmod_univar(work[r][c], work[h][c])
                    row_op(r, h, q)
        if work[h][c].is_zero():
            continue
        if lead(work[h][c]) != ONE:
            scale_row(h, ONE / lead(work[h][c]))
        for r in range(h):
            q, _ = divmod_univar(work[r][c], work[h][c])
            if not q.is_zero():
                row_op(r, h, q)
        h += 1

    rank_bound = min(n, m)
    for t in range(rank_bound):
        while True:
            pivot = find_pivot(work, t, n, m)
            if pivot is None:
                break
            _, pr, pc = pivot
            if pr != t:
                swap_rows(t, pr)
            if pc != t:
                swap_cols(t, pc)
            dirty = False
            for r in range(t + 1, n):
                if work[r][t].is_zero():
                    continue
                q, rem = divmod_univar(work[r][t], work[t][t])
                row_op(r, t, q)
                if not rem.is_zero():
                    dirty = True
            for c in range(t + 1, m):
                if work[t][c].is_zero():
                    continue
                q, rem = divmod_univar(work[t][c], work[t][t])
                col_op(c, t, q)
                if not rem.is_zero():
                    dirty = True
            if dirty:
                continue
            if degree(work[t][t]) == 0:
                break
            offender = None
            for r in range(t + 1, n):
                for c in range(t + 1, m):
                    if work[r][c].is_zero():
                        continue
                    _, rem = divmod_univar(work[r][c], work[t][t])
                    if not rem.is_zero():
                        offender = r
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            work[t] = [a + b for a, b in zip(work[t], work[offender])]
            U[t] = [a + b for a, b in zip(U[t], U[offender])]
        if work[t][t].is_zero():
            break
    for t in range(rank_bound):
        p = work[t][t]
        if not p.is_zero() and lead(p) != ONE:
            scale_row(t, ONE / lead(p))
    return SmithDecomposition(PolyMatrix(U), PolyMatrix(work), PolyMatrix(V))


@st.composite
def _smith_inputs(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = _dense_polys(draw(st.sampled_from((_real, _gaussian))))
    rows = [[draw(entry) for _ in range(m)] for _ in range(n)]
    kind = draw(st.sampled_from(("any", "rank-deficient", "zero")))
    if kind == "zero":
        rows = [[ZERO_P] * m for _ in range(n)]
    elif kind == "rank-deficient":
        c = draw(_gaussian)
        rows[-1] = [c * x for x in rows[0]] if n > 1 else [ZERO_P] * m
    return PolyMatrix(rows)


def _assert_matches_reference(Mx: PolyMatrix) -> None:
    got, want = smith_normal_form(Mx), _reference_smith(Mx)
    for name in "UDV":
        assert getattr(got, name).render() == getattr(want, name).render(), name


@settings(deadline=None)
@given(_smith_inputs())
def test_smith_form_matches_the_multipoly_reference(Mx):
    _assert_matches_reference(Mx)


def test_block_divisibility_fold_matches_the_reference():
    # diag(d, d + 1): the pivot d divides its row and column but not d + 1,
    # so row 1 is folded into row 0 before the invariants come out as 1, d^2 + d
    Mx = PolyMatrix.diagonal([D, D + ONE_P])
    _assert_matches_reference(Mx)
    assert smith_normal_form(Mx).invariants == [ONE_P, D * D + D]


def test_smith_form_raises_when_its_chain_certificate_fails(monkeypatch):
    monkeypatch.setattr(polymatrix, "divmod_univar", lambda a, b: (ZERO_P, ONE_P))
    with pytest.raises(AssertionError, match="does not divide"):
        smith_normal_form(PolyMatrix.diagonal([D, D * D]))
