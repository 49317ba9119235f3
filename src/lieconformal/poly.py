"""Sparse exact polynomials in the fixed variable universe (d, l, m).

`d` is the translation generator, `l` and `m` the two formal bracket
parameters.  A polynomial is a map from exponent triples (e_d, e_l, e_m)
to nonzero Scalar coefficients; the zero polynomial is the empty map.
Zero coefficients are never stored, so the representation is canonical and
equality is syntactic.

The universe is fixed on purpose: every identity in the bracket calculus
lives in at most three variables (d, plus l and m for nested brackets), and
a closed universe keeps substitution total.  Degree of the zero polynomial
is the sentinel None, never -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .scalars import ONE, Scalar

VARS = ("d", "l", "m")
_VAR_INDEX = {"d": 0, "l": 1, "m": 2}

Key = tuple[int, int, int]

_ZERO_KEY: Key = (0, 0, 0)


@dataclass(frozen=True)
class Degrees:
    """Exact degree data; None marks the zero polynomial."""

    total: int | None
    per_var: dict[str, int | None]


class MultiPoly:
    # _hash is filled on the first __hash__ call; terms never change after
    # construction, so the cached value stays right
    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[Key, Scalar] | None = None):
        clean: dict[Key, Scalar] = {}
        if terms:
            for key, coeff in terms.items():
                if not isinstance(coeff, Scalar):
                    coeff = Scalar(coeff)
                if coeff.is_zero():
                    continue
                clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return _ZERO

    @staticmethod
    def one() -> "MultiPoly":
        return _ONE

    @staticmethod
    def const(c) -> "MultiPoly":
        if not isinstance(c, Scalar):
            c = Scalar(c)
        return MultiPoly({_ZERO_KEY: c})

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        key = [0, 0, 0]
        key[_VAR_INDEX[name]] = 1
        return MultiPoly({tuple(key): ONE})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            s = out.get(key)
            s = coeff if s is None else s + coeff
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return _raw(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return _raw({key: -coeff for key, coeff in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            c = other if isinstance(other, Scalar) else Scalar(other)
            if c.is_zero():
                return _ZERO
            return _raw({key: coeff * c for key, coeff in self.terms.items()})
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Key, Scalar] = {}
        for key, coeff in self.terms.items():
            _accumulate(out, key, coeff, other.terms)
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
            return h

    def substitute(self, var: str, expr: "MultiPoly") -> "MultiPoly":
        """Image under the ring map var -> expr, all other variables fixed.

        The substitution is simultaneous: expr may itself contain var.
        """
        idx = _VAR_INDEX[var]
        out: dict[Key, Scalar] = {}
        powers: dict[int, MultiPoly] = {0: _ONE, 1: expr}
        for key, coeff in self.terms.items():
            e = key[idx]
            power = powers.get(e)
            if power is None:
                power = powers[e] = _power(expr, e)
            rest = list(key)
            rest[idx] = 0
            _accumulate(out, rest, coeff, power.terms)
        return _raw(out)

    def coeff_of(self, var: str, k: int) -> "MultiPoly":
        """Polynomial coefficient of var**k (a polynomial in the others)."""
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        idx = _VAR_INDEX[var]
        out: dict[Key, Scalar] = {}
        for key, coeff in self.terms.items():
            if key[idx] == k:
                rest = list(key)
                rest[idx] = 0
                out[tuple(rest)] = coeff
        return _raw(out)

    def degrees(self) -> Degrees:
        if not self.terms:
            return Degrees(None, {v: None for v in VARS})
        total = max(sum(key) for key in self.terms)
        per = {v: max(key[i] for key in self.terms) for i, v in enumerate(_VAR_INDEX)}
        return Degrees(total, per)

    def total_degree(self) -> int | None:
        return None if not self.terms else max(sum(key) for key in self.terms)

    def degree_in(self, var: str) -> int | None:
        if not self.terms:
            return None
        idx = _VAR_INDEX[var]
        return max(key[idx] for key in self.terms)

    def uses_only(self, allowed: tuple[str, ...]) -> bool:
        banned = [i for v, i in _VAR_INDEX.items() if v not in allowed]
        return all(all(key[i] == 0 for i in banned) for key in self.terms)

    def constant_value(self) -> Scalar | None:
        """The Scalar value if this is a constant polynomial, else None."""
        if not self.terms:
            return Scalar(0)
        if len(self.terms) == 1 and _ZERO_KEY in self.terms:
            return self.terms[_ZERO_KEY]
        return None

    # -- rendering: graded lexicographic, d > l > m ---------------------------

    def sorted_terms(self) -> list[tuple[Key, Scalar]]:
        return sorted(
            self.terms.items(),
            key=lambda item: (-sum(item[0]), tuple(-e for e in item[0])),
        )

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for key, coeff in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(VARS, key)
                if e
            )
            if not mono:
                body = str(coeff)
            elif coeff == ONE:
                body = mono
            elif coeff == Scalar(-1):
                body = f"-{mono}"
            elif not (coeff.is_real() or coeff.is_imaginary()):
                body = f"({coeff})*{mono}"
            else:
                body = f"{coeff}*{mono}"
            parts.append(body)
        text = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                text += f" - {part[1:]}"
            else:
                text += f" + {part}"
        return text

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"MultiPoly<{self.render()}>"


def _accumulate(out: dict[Key, Scalar], shift, scale: Scalar, terms: dict[Key, Scalar]) -> None:
    """out += scale * x^shift * (the polynomial with these terms); no zero is kept."""
    s0, s1, s2 = shift
    for (t0, t1, t2), ct in terms.items():
        key = (s0 + t0, s1 + t1, s2 + t2)
        c = scale * ct
        s = out.get(key)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s


def _raw(terms: dict[Key, Scalar]) -> MultiPoly:
    p = MultiPoly.__new__(MultiPoly)
    object.__setattr__(p, "terms", terms)
    return p


def _coerce(x) -> MultiPoly:
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, (Scalar, int)):
        return MultiPoly.const(x)
    return NotImplemented


_ZERO = MultiPoly()
_ONE = MultiPoly.const(1)

# Substitution images are few (affine shifts such as l+m or -l-d) and
# exponents small, so a small bound holds every power a search reuses; the
# parser's powers are shared here too, since a spec repeats them.
_POWER_CACHE_SIZE = 256


@lru_cache(maxsize=_POWER_CACHE_SIZE)
def _power(expr: MultiPoly, e: int) -> MultiPoly:
    """expr**e, shared between calls; safe because MultiPoly is immutable."""
    return expr**e

D = MultiPoly.variable("d")
L = MultiPoly.variable("l")
M = MultiPoly.variable("m")


def leading_term(p: MultiPoly) -> tuple[Key, Scalar]:
    """Leading (exponent, coefficient) in graded-lex order, d > l > m."""
    if p.is_zero():
        raise ValueError("zero polynomial has no leading term")
    key = max(p.terms, key=_graded_lex)
    return key, p.terms[key]


def _graded_lex(key: Key) -> tuple[int, Key]:
    return sum(key), key


def exact_div(p: MultiPoly, q: MultiPoly) -> MultiPoly | None:
    """p / q when q divides p exactly, else None."""
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return _ZERO
    qkey, qc = leading_term(q)
    quotient: dict[Key, Scalar] = {}
    # one remainder, reduced in place; each step cancels its leading term
    rem = dict(p.terms)
    while rem:
        rkey = max(rem, key=_graded_lex)
        step = tuple(a - b for a, b in zip(rkey, qkey))
        if any(e < 0 for e in step):
            return None
        c = rem[rkey] / qc
        quotient[step] = c
        _accumulate(rem, step, -c, q.terms)
    return _raw(quotient)


def divmod_univar(a: MultiPoly, b: MultiPoly, var: str = "d") -> tuple[MultiPoly, MultiPoly]:
    """Polynomial division in the single variable var; entries must be univariate."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    idx = _VAR_INDEX[var]
    for poly in (a, b):
        if not poly.uses_only((var,)):
            raise ValueError(f"divmod_univar expects polynomials in {var} only")
    db = b.degree_in(var)
    lead_key = [0, 0, 0]
    lead_key[idx] = db
    bc = b.terms[tuple(lead_key)]
    quo: dict[Key, Scalar] = {}
    rem = dict(a.terms)
    while rem:
        da = max(key[idx] for key in rem)
        if da < db:
            break
        shift = [0, 0, 0]
        shift[idx] = da - db
        top_key = [0, 0, 0]
        top_key[idx] = da
        c = rem[tuple(top_key)] / bc
        quo[tuple(shift)] = c
        _accumulate(rem, shift, -c, b.terms)
    return _raw(quo), _raw(rem)
