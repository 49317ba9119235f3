from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from lieconformal.scalars import I, ONE, Scalar, ZERO, sc


def small_rationals():
    return st.fractions(
        min_value=-6, max_value=6, max_denominator=8
    )


def scalars():
    return st.builds(Scalar, small_rationals(), small_rationals())


def test_lowest_terms_storage():
    s = Scalar(Fraction(4, 8), Fraction(-6, 4))
    assert s.re == Fraction(1, 2)
    assert s.im == Fraction(-3, 2)
    assert s.re.denominator > 0


def test_basic_arithmetic():
    a = sc(2, 1)
    b = sc(3, -2)
    assert a + b == sc(5, -1)
    assert a - b == sc(-1, 3)
    assert a * b == sc(8, -1)  # (2+i)(3-2i) = 6 - 4i + 3i + 2 = 8 - i
    assert (a * b) / b == a
    assert a * a.conjugate() == sc(5)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_powers():
    assert I**2 == sc(-1)
    assert sc("1/2") ** 3 == sc(Fraction(1, 8))
    with pytest.raises(ValueError):
        sc(2) ** -1


def test_rendering():
    assert str(sc(3)) == "3"
    assert str(sc(Fraction(-5, 3))) == "-5/3"
    assert str(sc(Fraction(1, 2), Fraction(1, 3))) == "1/2+1/3*i"
    assert str(sc(0, -2)) == "-2*i"
    assert str(sc(1, -1)) == "1-1*i"


def test_comparison_with_ints():
    assert sc(3) == 3
    assert sc(3, 1) != 3
    assert 2 * sc(1, 1) == sc(2, 2)


def test_hash_is_the_canonical_triple_not_the_int_hash():
    # a Scalar hashes its triple: equal to an int, yet hashed apart from it
    assert sc(3) == 3 and hash(sc(3)) == hash((3, 0, 1)) != hash(3)
    assert sc(Fraction(1, 2)) == Fraction(1, 2) and hash(sc(Fraction(1, 2))) != hash(Fraction(1, 2))
    assert hash(sc("6/4", "-3/2")) == hash(sc(3, -3) / 2)


@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(scalars())
def test_inverses(a):
    assert a + (-a) == ZERO
    if not a.is_zero():
        assert a * (ONE / a) == ONE


# -- the kernel against plain (re, im) pair arithmetic --------------------------


def mixed_scalars():
    """Reals (im == 0) and Gaussian values in equal measure."""
    zero = st.just(Fraction(0))
    return st.builds(Scalar, small_rationals(), st.one_of(zero, small_rationals()))


def wide_rationals():
    return st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64))


def wide_scalars():
    """Reals, pure imaginaries and Gaussian values with parts up to 2**64."""
    zero = st.just(Fraction(0))
    return st.one_of(
        st.builds(Scalar, wide_rationals(), zero),
        st.builds(Scalar, zero, wide_rationals()),
        st.builds(Scalar, wide_rationals(), wide_rationals()),
    )


def _pair(s):
    return (s.re, s.im)


def _pair_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _assert_canonical(s):
    n, m, q = s._nmq
    assert q > 0 and gcd(n, m, q) == 1
    if not (n or m):
        assert (n, m, q) == (0, 0, 1)
    assert type(s.re) is Fraction and type(s.im) is Fraction


def _check_against_pairs(a, b, e):
    pa, pb = _pair(a), _pair(b)
    results = [a + b, a - b, a * b, -a, a.conjugate(), a**e]
    assert _pair(results[0]) == (pa[0] + pb[0], pa[1] + pb[1])
    assert _pair(results[1]) == (pa[0] - pb[0], pa[1] - pb[1])
    assert _pair(results[2]) == _pair_mul(pa, pb)
    assert _pair(results[3]) == (-pa[0], -pa[1])
    assert _pair(results[4]) == (pa[0], -pa[1])
    power = (Fraction(1), Fraction(0))
    for _ in range(e):
        power = _pair_mul(power, pa)
    assert _pair(results[5]) == power
    n = pb[0] * pb[0] + pb[1] * pb[1]
    if n:
        results.append(a / b)
        assert _pair(results[-1]) == _pair_mul(pa, (pb[0] / n, -pb[1] / n))
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
    assert a.is_zero() == (pa == (0, 0))
    assert a.is_real() == (pa[1] == 0) and a.is_imaginary() == (pa[0] == 0)
    assert a.as_int() == (pa[0] if pa[1] == 0 and pa[0].denominator == 1 else None)
    assert (a == b) == (pa == pb)
    # equal values built by two paths hash equal
    for result in [a, *results]:
        _assert_canonical(result)
        assert hash(result) == hash(Scalar(*_pair(result)))


@given(mixed_scalars(), mixed_scalars(), st.integers(0, 4))
def test_kernel_matches_pair_arithmetic(a, b, e):
    _check_against_pairs(a, b, e)


@given(wide_scalars(), wide_scalars(), st.integers(0, 4))
@example(Scalar(Fraction(2**64 - 1, 3), Fraction(-5, 2**64)), Scalar(-(2**64)), 3)
@example(Scalar(Fraction(7, 2**63)), Scalar(0, Fraction(-(2**64), 3)), 2)
@example(Scalar(0, Fraction(1, 2**64)), Scalar(Fraction(-1, 2**64)), 0)
def test_wide_kernel_matches_pair_arithmetic(a, b, e):
    _check_against_pairs(a, b, e)


@given(st.integers(-(2**64), 2**64), st.integers(-(2**64), 2**64), st.integers(1, 2**64))
def test_raw_constructor_matches_validated_one(n, m, q):
    from lieconformal.scalars import _make

    g = gcd(n, m, q)
    n, m, q = n // g, m // g, q // g
    made, built = _make(n, m, q), Scalar(Fraction(n, q), Fraction(m, q))
    assert made == built and hash(made) == hash(built)
    assert str(made) == str(built) and repr(made) == repr(built)


def test_floats_are_refused():
    for bad in (0.1, 1.0, 1j):
        with pytest.raises(TypeError):
            Scalar(bad)
        with pytest.raises(TypeError):
            Scalar(1, bad)
    with pytest.raises(TypeError):
        sc(0.5)
