"""Exact Gaussian-rational scalars.

The coefficient field for the whole package: values re + im*i where both
parts are arbitrary-precision rationals.  fractions.Fraction keeps each
part in lowest terms with a positive denominator, so equality is exact and
hashable.  Nothing downstream ever touches floating point: "this polynomial
is identically zero" is always a decidable, exact question, and a float
argument is refused rather than silently converted.

Invariant the arithmetic relies on: `re` and `im` are always normalized
Fractions, and a real value carries `im == 0`.  So when both operands have
a zero imaginary part, one Fraction operation on the real parts gives the
whole result, and `_make` may store parts that are already Fractions
without wrapping them again.
"""

from __future__ import annotations

from fractions import Fraction

_RatLike = int | Fraction

_Q0 = Fraction(0)


class Scalar:
    __slots__ = ("re", "im")

    def __init__(self, re: _RatLike | str = 0, im: _RatLike | str = 0):
        if isinstance(re, (float, complex)) or isinstance(im, (float, complex)):
            raise TypeError("Scalar parts must be exact (int, Fraction or str), not float or complex")
        _set_re(self, re if type(re) is Fraction else Fraction(re))
        _set_im(self, im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

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
        if self.im or other.im:
            return _make(self.re + other.re, self.im + other.im)
        return _make(self.re + other.re, _Q0)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.im or other.im:
            return _make(self.re - other.re, self.im - other.im)
        return _make(self.re - other.re, _Q0)

    def __rsub__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _make(-self.re, -self.im if self.im else _Q0)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.im or other.im:
            return _make(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return _make(self.re * other.re, _Q0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not (self.im or other.im):
            if not other.re:
                raise ZeroDivisionError("division by zero Scalar")
            return _make(self.re / other.re, _Q0)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return _make(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

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
        return _make(self.re, -self.im)

    # -- predicates and hashing ------------------------------------------

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- ordering: lexicographic on (re, im); only used for deterministic
    #    output ordering, not for analysis ------------------------------

    def sort_key(self):
        return (self.re, self.im)

    # -- rendering: the golden text format -------------------------------

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        imag = f"{abs(self.im)}*i"
        if self.re == 0:
            return imag if self.im > 0 else f"-{imag}"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{imag}"

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"


_set_re = Scalar.re.__set__
_set_im = Scalar.im.__set__


def _make(re: Fraction, im: Fraction) -> Scalar:
    """Scalar from parts that are already normalized Fractions; no checks."""
    s = object.__new__(Scalar)
    _set_re(s, re)
    _set_im(s, im)
    return s


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def sc(re: _RatLike | str = 0, im: _RatLike | str = 0) -> Scalar:
    """Shorthand constructor; accepts ints, Fractions and strings like "5/3"."""
    return Scalar(re, im)
