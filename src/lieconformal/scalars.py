"""Exact Gaussian-rational scalars.

The coefficient field for the whole package: values (n + m*i)/q where n,
m and q are arbitrary-precision Python ints.  Nothing downstream ever
touches floating point: "this polynomial is identically zero" is always a
decidable, exact question, and a float argument is refused rather than
silently converted.

Invariant: a Scalar stores the single triple (n, m, q) with q > 0 and
gcd(n, m, q) == 1, so zero is (0, 0, 1).  Each value has exactly one such
triple, which makes equality a comparison of triples.  Every operation
computes its result with integer products and then divides out one
gcd(n, m, q), which it skips when q == 1.  A real value is a triple with
m == 0 and goes through the same code.  `re` and `im` are normalized
Fractions built on request, for rendering and for callers outside the
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_RatLike = int | Fraction


class Scalar:
    __slots__ = ("_nmq",)

    def __init__(self, re: _RatLike | str = 0, im: _RatLike | str = 0):
        if type(re) is int and type(im) is int:
            _set(self, (re, im, 1))
            return
        if isinstance(re, (float, complex)) or isinstance(im, (float, complex)):
            raise TypeError("Scalar parts must be exact (int, Fraction or str), not float or complex")
        re, im = Fraction(re), Fraction(im)
        q = lcm(re.denominator, im.denominator)
        # both parts are in lowest terms, so no prime divides all of n, m and q
        _set(self, (re.numerator * (q // re.denominator), im.numerator * (q // im.denominator), q))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def re(self) -> Fraction:
        n, _, q = self._nmq
        return Fraction(n, q)

    @property
    def im(self) -> Fraction:
        _, m, q = self._nmq
        return Fraction(m, q)

    # -- field operations ------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar(x)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        an, am, aq = self._nmq
        bn, bm, bq = other._nmq
        if aq == bq:
            return _reduced(an + bn, am + bm, aq)
        return _reduced(an * bq + bn * aq, am * bq + bm * aq, aq * bq)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        an, am, aq = self._nmq
        bn, bm, bq = other._nmq
        if aq == bq:
            return _reduced(an - bn, am - bm, aq)
        return _reduced(an * bq - bn * aq, am * bq - bm * aq, aq * bq)

    def __rsub__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        n, m, q = self._nmq
        return _make(-n, -m, q)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        an, am, aq = self._nmq
        bn, bm, bq = other._nmq
        return _reduced(an * bn - am * bm, an * bm + am * bn, aq * bq)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        an, am, aq = self._nmq
        bn, bm, bq = other._nmq
        # multiply through by the conjugate: the new denominator aq*|b|^2 is positive
        norm = bn * bn + bm * bm
        if not norm:
            raise ZeroDivisionError("division by zero Scalar")
        return _reduced((an * bn + am * bm) * bq, (am * bn - an * bm) * bq, aq * norm)

    def __rtruediv__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Scalar powers must be nonnegative integers")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "Scalar":
        n, m, q = self._nmq
        return _make(n, -m, q)

    # -- predicates and hashing ------------------------------------------

    def is_zero(self) -> bool:
        n, m, _ = self._nmq
        return not (n or m)

    def is_real(self) -> bool:
        return not self._nmq[1]

    def is_imaginary(self) -> bool:
        """True when the real part is zero, zero itself included."""
        return not self._nmq[0]

    def as_int(self) -> int | None:
        """The value as an int when it is a rational integer, else None."""
        n, m, q = self._nmq
        return n if q == 1 and not m else None

    def __bool__(self) -> bool:
        n, m, _ = self._nmq
        return bool(n or m)

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._nmq == other._nmq

    def __hash__(self):
        # the canonical triple, so equal Scalars hash equal.  A Scalar equal
        # to an int or a Fraction (sc(3) == 3) does not hash like it, so do
        # not mix Scalars with ints or Fractions as keys of one dict or set.
        return hash(self._nmq)

    # -- ordering: lexicographic on (re, im); only used for deterministic
    #    output ordering, not for analysis ------------------------------

    def sort_key(self):
        return (self.re, self.im)

    # -- rendering: the golden text format -------------------------------

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        imag = f"{abs(im)}*i"
        if re == 0:
            return imag if im > 0 else f"-{imag}"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{imag}"

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"


_set = Scalar._nmq.__set__
_new = object.__new__


def _make(n: int, m: int, q: int) -> Scalar:
    """Scalar (n + m*i)/q from a triple that is already canonical; no checks."""
    s = _new(Scalar)
    _set(s, (n, m, q))
    return s


def _reduced(n: int, m: int, q: int) -> Scalar:
    """Scalar (n + m*i)/q for q > 0, divided by gcd(n, m, q) to be canonical."""
    if q != 1:
        g = gcd(n, m, q)
        if g != 1:
            n //= g
            m //= g
            q //= g
    s = _new(Scalar)
    _set(s, (n, m, q))
    return s


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def sc(re: _RatLike | str = 0, im: _RatLike | str = 0) -> Scalar:
    """Shorthand constructor; accepts ints, Fractions and strings like "5/3"."""
    return Scalar(re, im)
