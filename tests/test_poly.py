from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieconformal.algebra import TruncationExceeded, block, jacobi_defect, map_virasoro_poly
from lieconformal.parsing import parse_poly
from lieconformal.poly import (
    D,
    L,
    M,
    MultiPoly,
    _accumulate,
    _add_products,
    _add_scaled,
    _graded_lex,
    _reduce_sums,
    divmod_univar,
    exact_div,
    leading_term,
)
from lieconformal.scalars import Scalar, sc

ZERO_P = MultiPoly.zero()
ONE_P = MultiPoly.one()


def keys():
    return st.tuples(
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)
    )


def coeffs():
    return st.builds(
        Scalar,
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
    )


def polys():
    return st.dictionaries(keys(), coeffs(), max_size=5).map(MultiPoly)


# -- arithmetic on the stated examples ---------------------------------------


def test_add_identity_and_inverse():
    p = D + 2 * L
    assert p + ZERO_P == p
    assert p + (-p) == ZERO_P


def test_add_matches_term_merge_oracle():
    p = D * D
    q = 3 * D * L + 2 * L * L
    # oracle: concatenate term lists, then collect coefficients per exponent
    merged: dict = {}
    for poly in (p, q):
        for key, coeff in poly.terms.items():
            merged[key] = merged.get(key, Scalar(0)) + coeff
    assert (p + q).terms == {k: c for k, c in merged.items() if not c.is_zero()}


def test_mul_identity():
    p = D + 2 * L
    assert p * ONE_P == p


def test_mul_degree_three_solution_shape():
    # l * (d^2 + 3dl + 2l^2) expands with no collisions
    product = L * (D * D + 3 * D * L + 2 * L * L)
    assert product == parse_poly("d^2*l + 3*d*l^2 + 2*l^3")


def test_mul_matches_distribute_and_collect_oracle():
    p, q = D + L, D - L
    acc: dict = {}
    for k1, c1 in p.terms.items():
        for k2, c2 in q.terms.items():
            key = tuple(a + b for a, b in zip(k1, k2))
            acc[key] = acc.get(key, Scalar(0)) + c1 * c2
    oracle = MultiPoly(acc)
    assert p * q == oracle == D * D - L * L


def test_substitute_skew_shift():
    assert (D + 2 * L).substitute("l", -L - D) == -D - 2 * L


def test_substitute_two_parameter_shift():
    f = D - 3 * L
    # oracle by expanding by hand: d - 3(l + m)
    assert f.substitute("l", L + M) == D - 3 * L - 3 * M


def test_substitute_binomial_expansion():
    # oracle: (d+l)^2 via the binomial theorem
    from math import comb

    oracle = MultiPoly(
        {(k, 2 - k, 0): Scalar(comb(2, k)) for k in range(3)}
    )
    assert (D * D).substitute("d", D + L) == oracle


def test_substitute_is_simultaneous():
    # expr may contain the substituted variable
    p = D * D
    assert p.substitute("d", D + 1) == D * D + 2 * D + ONE_P


def test_coeff_of():
    p = D + 2 * L
    assert p.coeff_of("l", 1) == MultiPoly.const(2)
    assert p.coeff_of("l", 0) == D
    delta = sc(Fraction(7, 3))
    q = L * (D - delta * L)
    assert q.coeff_of("l", 2) == MultiPoly.const(-delta)


def test_degrees():
    p = D + 2 * L
    assert p.total_degree() == 1 and p.degree_in("d") == 1 and p.degree_in("l") == 1
    assert p.degree_in("m") == 0
    cubic = L * (D * D + 3 * D * L + 2 * L * L)
    assert cubic.total_degree() == 3
    assert cubic.degree_in("l") == 3
    assert ZERO_P.total_degree() is None
    assert all(ZERO_P.degree_in(v) is None for v in ("d", "l", "m"))


# -- ring axioms and the stated invariants -----------------------------------


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys())
def test_substitution_round_trip(p):
    no_m = MultiPoly({k: c for k, c in p.terms.items() if k[2] == 0})
    shifted = no_m.substitute("l", L + M)
    assert shifted.substitute("m", ZERO_P) == no_m


@given(polys(), polys())
def test_degree_multiplicativity(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).total_degree() == p.total_degree() + q.total_degree()


@given(polys())
def test_lambda_coefficient_reconstruction(p):
    deg = p.degree_in("l")
    if deg is None:
        deg = 0
    rebuilt = ZERO_P
    for k in range(deg + 1):
        rebuilt = rebuilt + p.coeff_of("l", k) * L**k
    assert rebuilt == p


@given(polys())
def test_render_parse_round_trip(p):
    assert parse_poly(p.render()) == p


# -- powers -------------------------------------------------------------------


@contextmanager
def _products_made(cls):
    """Record every product that cls.__mul__ returns inside the block."""
    mul, made = cls.__dict__["__mul__"], []

    def recording(self, other):
        out = mul(self, other)
        made.append(out)
        return out

    cls.__mul__ = recording
    try:
        yield made
    finally:
        cls.__mul__ = mul


def test_power_makes_no_product_past_its_degree():
    # squaring once past the top bit of n would make b^(2^k) > b^n
    b = D + L + M + sc(Fraction(1, 7))
    product = ONE_P
    for n in range(21):
        with _products_made(MultiPoly) as made:
            power = b**n
        assert power == product
        assert all(p.total_degree() <= n * b.total_degree() for p in made)
        product = product * b


@given(coeffs(), st.integers(0, 20))
def test_scalar_power_makes_no_product_past_it(b, n):
    # every product made is b^k for some k <= n, and the last is b^n
    powers = [Scalar(1)]
    for _ in range(n):
        powers.append(powers[-1] * b)
    with _products_made(Scalar) as made:
        power = b**n
    assert power == powers[n]
    assert all(p in powers for p in made)


# -- division helpers ---------------------------------------------------------


@given(polys(), polys())
def test_exact_division_recovers_factor(p, q):
    if q.is_zero():
        with pytest.raises(ZeroDivisionError):
            exact_div(p, q)
        return
    assert exact_div(p * q, q) == p


def test_exact_division_detects_non_divisibility():
    assert exact_div(D + ONE_P, L) is None


def _long_division(p, q):
    """exact_div's loop for any divisor: cancel the remainder's leading term by a multiple of q until nothing is left."""
    qkey, qc = leading_term(q)
    quotient, rem = {}, p
    while rem:
        rkey, rc = leading_term(rem)
        step = tuple(a - b for a, b in zip(rkey, qkey))
        if min(step) < 0:
            return None
        quotient[step] = rc / qc
        rem = rem - MultiPoly({step: rc / qc}) * q
    return MultiPoly(quotient)


_monomials = st.builds(lambda key, c: MultiPoly({key: c}), keys(), coeffs().filter(lambda c: not c.is_zero()))


@given(polys(), _monomials, st.integers(0, 2), keys(), coeffs().filter(lambda c: not c.is_zero()))
def test_exact_division_by_a_monomial(s, q, v, shift, c):
    # the one-pass path for a one-term divisor agrees with the loop
    assert exact_div(s * q, q) == s == _long_division(s * q, q)
    # a term whose exponent falls short of q's in variable v alone
    [qkey] = q.terms
    if qkey[v] == 0:
        return
    key = tuple(qkey[t] - 1 if t == v else qkey[t] + shift[t] for t in range(3))
    p = s * q + MultiPoly({key: c})
    assert exact_div(p, q) is None
    assert _long_division(p, q) is None


@pytest.mark.parametrize("v", range(3))
def test_exact_division_by_a_monomial_refuses_one_short_exponent(v):
    # d^2 l^2 m^2 with the exponent of one variable dropped to zero, over d l m
    key = tuple(0 if t == v else 2 for t in range(3))
    assert exact_div(MultiPoly({key: 3}), D * L * M) is None


def _exact_div_loop(p, q):
    """exact_div's loop for a divisor of several terms before it shared _divide:
    None at the first leading term of the remainder that q's does not divide."""
    qkey, qc = leading_term(q)
    quotient, rem = {}, dict(p.terms)
    while rem:
        rkey = max(rem, key=_graded_lex)
        step = tuple(a - b for a, b in zip(rkey, qkey))
        if any(e < 0 for e in step):
            return None
        c = rem[rkey] / qc
        quotient[step] = c
        _accumulate(rem, step, -c, q.terms)
    return MultiPoly(quotient)


def _divmod_univar_loop(a, b):
    """divmod_univar's loop before it shared _divide: stop below b's degree in d."""
    db = b.degree_in("d")
    bc = b.terms[(db, 0, 0)]
    quo, rem = {}, dict(a.terms)
    while rem:
        da = max(key[0] for key in rem)
        if da < db:
            break
        shift = (da - db, 0, 0)
        c = rem[(da, 0, 0)] / bc
        quo[shift] = c
        _accumulate(rem, shift, -c, b.terms)
    return MultiPoly(quo), MultiPoly(rem)


def _same_terms(p, q):
    """Equal, with the terms in the same order."""
    return p == q and (p is None or list(p.terms) == list(q.terms))


_d_polys = st.dictionaries(st.integers(0, 4).map(lambda e: (e, 0, 0)), coeffs(), max_size=4).map(MultiPoly)


def _several_terms(polys):
    return polys.filter(lambda q: len(q.terms) >= 2)


@given(st.sampled_from([polys(), _d_polys]).flatmap(lambda ps: st.tuples(ps, ps, _several_terms(ps))))
def test_exact_division_by_several_terms_is_the_loop_it_shares(spq):
    # in three variables and in d alone, divisible and not
    s, r, q = spq
    for p in (s * q, s * q + r):
        assert _same_terms(exact_div(p, q), _exact_div_loop(p, q))
    assert exact_div(s * q, q) == s


@given(_d_polys, _d_polys, _d_polys.filter(bool))
def test_divmod_univar_is_the_loop_it_shares(s, r, b):
    for a in (s * b, s * b + r):
        got, want = divmod_univar(a, b), _divmod_univar_loop(a, b)
        assert all(_same_terms(x, y) for x, y in zip(got, want))
    assert divmod_univar(s * b, b) == (s, ZERO_P)


def test_divmod_univar():
    a = D**3 + 2 * D + ONE_P
    b = D + ONE_P
    q, r = divmod_univar(a, b)
    assert q * b + r == a
    assert (r.degree_in("d") or 0) < b.degree_in("d")
    with pytest.raises(ValueError):
        divmod_univar(D + L, D)


# -- substitution against the per-term definition ------------------------------


def _naive_substitute(p, var, expr):
    """Sum over terms of coeff * (rest monomial) * expr**e, one term at a time."""
    idx = "dlm".index(var)
    out = ZERO_P
    for key, coeff in p.terms.items():
        rest = list(key)
        rest[idx] = 0
        out = out + MultiPoly({tuple(rest): coeff}) * expr ** key[idx]
    return out


# every image a library call site substitutes, plus one nonlinear Gaussian one
_IMAGES = (
    ("l", M), ("l", L + M), ("l", -L - D), ("d", D + L), ("d", D + M),
    ("d", -L - M), ("d", -L), ("m", ZERO_P), ("d", sc(1, 2) * L * L - D + 3),
)


@settings(max_examples=60)
@given(polys(), st.sampled_from(_IMAGES))
def test_substitute_matches_per_term_definition(p, image):
    var, expr = image
    assert p.substitute(var, expr) == _naive_substitute(p, var, expr)


def test_substitute_powers_of_equal_images_agree():
    # the power cache is keyed by value; an equal image built anew must agree
    p = (D + L) ** 4 - 2 * D**3
    assert p.substitute("d", -L - M) == p.substitute("d", -(L + M)) == _naive_substitute(p, "d", -L - M)


@settings(max_examples=60)
@given(polys(), st.booleans())
def test_hash_is_cached_consistently(p, hash_rebuilt_first):
    # the hash is cached on first use; a distinct equal polynomial, built by
    # __init__ or by arithmetic (the raw constructor), must hash the same
    # whichever of the two was hashed first
    rebuilt = MultiPoly(dict(p.terms))
    via_arith = p + ZERO_P
    assert rebuilt is not p and via_arith is not p
    first, second = (rebuilt, p) if hash_rebuilt_first else (p, rebuilt)
    h = hash(first)
    assert hash(first) == h == hash(second) == hash(via_arith)
    assert hash(p) == hash(frozenset(p.terms.items()))
    assert {p: 1}[rebuilt] == 1


# -- the unreduced sums against the reduced per-operation path ---------------
#
# substitute and jacobi_defect sum their products as unreduced triples and
# reduce each coefficient once; the oracles below reduce after every product
# and every sum.  Coefficients have three-digit Gaussian parts, so the sums
# move onto lcms of unequal denominators, and each input is built so that
# some sums cancel exactly.

_big_coeffs = st.builds(
    Scalar,
    st.builds(Fraction, st.integers(-999, 999), st.integers(1, 999)),
    st.builds(Fraction, st.integers(-999, 999), st.integers(1, 999)),
)
_big_polys = st.dictionaries(keys(), _big_coeffs, max_size=5).map(MultiPoly)
_big_dl_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0)), _big_coeffs, max_size=4
).map(MultiPoly)


def _swapped_lm(p):
    return MultiPoly({(e_d, e_m, e_l): c for (e_d, e_l, e_m), c in p.terms.items()})


@settings(max_examples=80, deadline=None)
@given(_big_polys, _big_polys, st.sampled_from(_IMAGES))
def test_substitute_with_cancelling_sums_matches_the_reduced_path(r, g, image):
    # g(d, l, m) - g(d, m, l) vanishes under l -> m, so there every sum
    # from g cancels; under the other images its terms still collide
    p = r + g - _swapped_lm(g)
    var, expr = image
    image_p = p.substitute(var, expr)
    assert image_p == _naive_substitute(p, var, expr)
    assert not any(c.is_zero() for c in image_p.terms.values())
    if image == ("l", M):
        assert image_p == _naive_substitute(r, var, expr)


def _naive_jacobi_defect(entry, x, y, z):
    """jacobi_defect with every image, product and sum a reduced MultiPoly operation."""
    out = {}

    def add(k, value):
        out[k] = out.get(k, ZERO_P) + value

    for w, q in entry(y, z).items():
        factor = _naive_substitute(_naive_substitute(q, "l", M), "d", D + L)
        for k, p in entry(x, w).items():
            add(k, factor * p)
    for w, r in entry(x, y).items():
        factor = -_naive_substitute(r, "d", -L - M)
        for k, p in entry(w, z).items():
            add(k, factor * _naive_substitute(p, "l", L + M))
    for w, s in entry(x, z).items():
        factor = -_naive_substitute(s, "d", D + M)
        for k, p in entry(y, w).items():
            add(k, factor * _naive_substitute(p, "l", M))
    return {k: p for k, p in out.items() if not p.is_zero()}


_big_gaussian = _big_coeffs.filter(lambda c: not c.is_zero())


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.builds(block, _big_gaussian, st.just(3)),
        st.builds(map_virasoro_poly, st.integers(2, 4)),
    ),
    st.data(),
)
def test_jacobi_defect_with_cancelling_sums_matches_the_reduced_path(A, data):
    # block(p) and map_virasoro_poly satisfy Jacobi, so their defects cancel
    # to zero; an added three-digit Gaussian polynomial leaves a partial sum
    table = {pair: dict(vec) for pair, vec in A.table.items()}
    pair = data.draw(st.sampled_from(sorted(table)))
    k = data.draw(st.integers(0, A.n_gens - 1))
    table[pair][k] = table[pair].get(k, ZERO_P) + data.draw(_big_dl_polys)

    def entry(i, j):
        if (i, j) not in table:
            raise TruncationExceeded(f"({i},{j})")
        return {c: p for c, p in table[(i, j)].items() if p}

    x, y, z = (data.draw(st.integers(0, A.n_gens - 1)) for _ in range(3))
    try:
        expected = _naive_jacobi_defect(entry, x, y, z)
    except TruncationExceeded:
        with pytest.raises(TruncationExceeded):
            jacobi_defect(entry, x, y, z)
        return
    assert jacobi_defect(entry, x, y, z) == expected


@settings(max_examples=80, deadline=None)
@given(_big_coeffs, st.lists(_big_polys, min_size=1, max_size=4), st.data())
def test_add_scaled_is_add_products_with_a_constant_left_factor(c, parts, data):
    # each part scaled by c, then the first part again scaled by -c: the
    # sums of its keys cancel, and the unreduced triples must still agree
    scales = [c] + [data.draw(_big_coeffs) for _ in parts[1:]] + [-c]
    scaled, products = {}, {}
    for scale, part in zip(scales, parts + parts[:1]):
        _add_scaled(scaled, scale, part.terms)
        _add_products(products, {(0, 0, 0): scale}, part.terms)
    assert scaled == products
    assert list(scaled) == list(products)
    assert _reduce_sums(scaled) == _reduce_sums(products)
