from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieconformal.parsing import parse_poly
from lieconformal.poly import (
    D,
    L,
    M,
    MultiPoly,
    divmod_univar,
    exact_div,
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
    d = (D + 2 * L).degrees()
    assert d.total == 1 and d.per_var["d"] == 1 and d.per_var["l"] == 1
    cubic = L * (D * D + 3 * D * L + 2 * L * L)
    assert cubic.degrees().total == 3
    assert cubic.degree_in("l") == 3
    z = ZERO_P.degrees()
    assert z.total is None
    assert all(v is None for v in z.per_var.values())


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
