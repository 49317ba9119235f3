import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from lieconformal.polymatrix import (
    PolyMatrix,
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
