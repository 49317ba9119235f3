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

A sum of many products reduces each coefficient once: _add_products
keeps its running sums as unreduced Gaussian-integer triples, and
_reduce_sums divides out one gcd per coefficient at the end.  substitute
uses it, and so do algebra.lambda_bracket, which reduces each component
of a bracket once, and algebra._jacobi_sums: jacobi_defect reduces those
sums, and the a1 scan (grading._Scan._recurse_entry) adds one more
product into them before it reads them.  _add_scaled is the same sum
without a key shift, on any keys: algebra.map_virasoro's associativity
check, funceq's columns and annihilation's brackets, defects and weight
forms.  The parser (parsing._Parser) multiplies the factors of a term
through _add_products, adds each signed term into one sum per expression
with _add_products or _add_scaled, and reduces that sum once.  __mul__
and the long division of exact_div and divmod_univar (_divide, which
reads the remainder's leading coefficient at every step) stay on
_accumulate, which reduces each sum in place.  exact_div by a one-term divisor, the a1 scan's case
(grading._Scan._recurse_entry), needs no remainder: it divides each term of the dividend once, in the
dividend's order, not the loop's descending one.  The values are the
same either way, since each has one canonical triple; only the order of
a term dict can differ, where a partial sum cancels and comes back (a
zero sum keeps its place here, and _accumulate drops it and appends it
again) or where a quotient keeps its dividend's order.  No output reads
that order: equality compares dicts, the hash is over a frozenset,
rendering sorts, leading terms take a maximum under a total order,
linalg.nullspace, which lays rows out in first-seen key order, returns
the basis of the unique RREF, and weight_spaces' refusal sorts the
unknowns each image reaches before it names one.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .scalars import ONE, Scalar, _reduced, _square_and_multiply

VARS = ("d", "l", "m")
_VAR_INDEX = {"d": 0, "l": 1, "m": 2}

Key = tuple[int, int, int]

_ZERO_KEY: Key = (0, 0, 0)


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
        return _square_and_multiply(self, n, _ONE)

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
        sums: dict[Key, tuple[int, int, int]] = {}
        powers: dict[int, MultiPoly] = {0: _ONE, 1: expr}
        for key, coeff in self.terms.items():
            e = key[idx]
            power = powers.get(e)
            if power is None:
                power = powers[e] = _power(expr, e)
            rest = list(key)
            rest[idx] = 0
            _add_products(sums, {tuple(rest): coeff}, power.terms)
        return _raw(_reduce_sums(sums))

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

    def total_degree(self) -> int | None:
        return None if not self.terms else max(sum(key) for key in self.terms)

    def degree_in(self, var: str) -> int | None:
        if not self.terms:
            return None
        idx = _VAR_INDEX[var]
        return max(key[idx] for key in self.terms)

    def uses_only(self, allowed: tuple[str, ...]) -> bool:
        banned = _banned(allowed)
        for key in self.terms:
            for i in banned:
                if key[i]:
                    return False
        return True

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


def _add_products(sums: dict, left: dict[Key, Scalar], right: dict[Key, Scalar]) -> None:
    """sums += (the polynomial with terms left) * (the one with terms right), unreduced.

    Each value of sums is a triple (n, m, q) for (n + m*i)/q with q > 0,
    not divided by its gcd: a product is integer arithmetic only, a sum
    over equal denominators adds the numerators, and a sum over unequal
    ones moves both onto their lcm, which costs one gcd.  A zero sum stays
    in place; _reduce_sums makes every value canonical and drops the zeros.
    """
    get = sums.get
    for (s0, s1, s2), a in left.items():
        an, am, aq = a._nmq
        for (t0, t1, t2), b in right.items():
            bn, bm, bq = b._nmq
            key = (s0 + t0, s1 + t1, s2 + t2)
            n = an * bn - am * bm
            m = an * bm + am * bn
            q = aq * bq
            prev = get(key)
            if prev is None:
                sums[key] = (n, m, q)
            else:
                pn, pm, pq = prev
                if pq == q:
                    sums[key] = (pn + n, pm + m, q)
                else:
                    g = gcd(pq, q)
                    u, v = q // g, pq // g
                    sums[key] = (pn * u + n * v, pm * u + m * v, pq * u)


def _add_scaled(sums: dict, c: Scalar, terms: dict) -> None:
    """sums += c * terms, a sparse vector of any keys, unreduced as in _add_products.

    On polynomial terms it is _add_products(sums, {_ZERO_KEY: c}, terms)
    without the key shift.
    """
    cn, cm, cq = c._nmq
    get = sums.get
    for key, b in terms.items():
        bn, bm, bq = b._nmq
        n = cn * bn - cm * bm
        m = cn * bm + cm * bn
        q = cq * bq
        prev = get(key)
        if prev is None:
            sums[key] = (n, m, q)
        else:
            pn, pm, pq = prev
            if pq == q:
                sums[key] = (pn + n, pm + m, q)
            else:
                g = gcd(pq, q)
                u, v = q // g, pq // g
                sums[key] = (pn * u + n * v, pm * u + m * v, pq * u)


def _reduce_sums(sums: dict) -> dict:
    """The canonical Scalar of each nonzero sum that _add_products or _add_scaled built, one gcd per key."""
    return {key: _reduced(n, m, q) for key, (n, m, q) in sums.items() if n or m}


@lru_cache(maxsize=None)
def _banned(allowed: tuple[str, ...]) -> tuple[int, ...]:
    """The key indices of the variables not in allowed, for MultiPoly.uses_only.

    Callers pass constant tuples, so the memo holds a few entries.
    """
    return tuple(i for i, v in enumerate(VARS) if v not in allowed)


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

# Substitution images (affine shifts such as l+m or -l-d) and the parser's
# powers of parenthesised bases, which a spec repeats, are shared here.
# One pass over the benchmark's pool for one seed (seeds 1 to 3) leaves 2
# to 12 powers here on the scan workload, 6 on axioms, 11 to 15 on linear
# and 13 on gaussian, so this bound holds a whole pool.
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
    if len(q.terms) == 1:
        # a monomial divides term by term: each term of p is a quotient
        # term times q, and distinct terms of p give distinct quotient terms
        [((q0, q1, q2), qc)] = q.terms.items()
        quotient: dict[Key, Scalar] = {}
        for (e0, e1, e2), c in p.terms.items():
            if e0 < q0 or e1 < q1 or e2 < q2:
                return None
            quotient[(e0 - q0, e1 - q1, e2 - q2)] = c / qc
        return _raw(quotient)
    quotient, rem = _divide(p, q)
    return None if rem else _raw(quotient)


def divmod_univar(a: MultiPoly, b: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Polynomial division in d; both entries must be polynomials in d alone."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    for poly in (a, b):
        if not poly.uses_only(("d",)):
            raise ValueError("divmod_univar expects polynomials in d only")
    quotient, rem = _divide(a, b)
    return _raw(quotient), _raw(rem)


def _divide(p: MultiPoly, q: MultiPoly) -> tuple[dict[Key, Scalar], dict[Key, Scalar]]:
    """(quotient terms, remainder terms) of p by a nonzero q, until q's leading term fails to divide."""
    qkey, qc = leading_term(q)
    quotient: dict[Key, Scalar] = {}
    rem = dict(p.terms)  # one remainder, reduced in place
    while rem:
        rkey = max(rem, key=_graded_lex)
        step = tuple(a - b for a, b in zip(rkey, qkey))
        if any(e < 0 for e in step):
            break
        c = rem[rkey] / qc
        quotient[step] = c
        _accumulate(rem, step, -c, q.terms)
    return quotient, rem
