"""Recursive-descent parser for the textual polynomial syntax.

Grammar (juxtaposition is not multiplication; '*' is mandatory):

    expr   := '-'? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := 'd' | 'l' | 'm' | rational | 'i' | '(' expr ')'

rational is an unsigned integer or p/q.  'i' is the imaginary unit.  The
leading unary minus is an extension needed so rendered polynomials
re-parse to themselves.

An exponent is at most MAX_EXPONENT, and so is the product of the
exponents of nested powers, as 6 in (d^2)^3; every product and power has
total degree at most MAX_DEGREE, checked before it is multiplied out; and
a numeral has at most MAX_DIGITS digits.  So a short entry cannot ask for
a polynomial of huge degree or a constant of huge size.

The parser evaluates as it reads, over a flat token list scanned before
parsing begins.  A factor is a term dict, never mutated and so shared:
d, l, m and i are module constants, a numeral is {(0, 0, 0): value} (no
Fraction) or {} for zero, and a parenthesised expression is the terms of
its MultiPoly.  A term multiplies its factors through poly._add_products,
and an expression adds its signed terms into one unreduced sum
(poly._add_products and _add_scaled) and reduces it once
(poly._reduce_sums), so each coefficient pays one gcd per expression.  A
parenthesised expression and the whole text are MultiPolys, and a power
of a parenthesised base goes through the shared power memo poly._power.
"""

from __future__ import annotations

from .poly import (
    D, L, M, MultiPoly, _ONE, _ZERO_KEY, _add_products, _add_scaled, _power, _raw, _reduce_sums,
)
from .scalars import I, ONE, Scalar, _reduced


# deeper parenthesis nesting is refused rather than left to exhaust the stack
_MAX_NESTING = 100
MAX_EXPONENT = 16
# check-algebra on one entry (d + l + 1)^k + 2*l took 0.43 s at degree
# k = 16, 1.1 s at 20, 2.7 s at 24 and 10.6 s at 32 on a 2-vCPU VM; the
# specs of the benchmark's axioms workload have degree 2 or less
MAX_DEGREE = 16
# int() converts a digit string this long under every setting of the
# interpreter's digit limit (PYTHONINTMAXSTRDIGITS), so a spec parses the
# same everywhere
MAX_DIGITS = 640
_DIGITS = "0123456789"

# the term dicts of the named atoms, shared by every parse and never mutated
_NAMES = {"d": D.terms, "l": L.terms, "m": M.terms, "i": {_ZERO_KEY: I}}
_MINUS_ONE = Scalar(-1)

_Token = tuple[str, str, int, int]  # kind, text, line, column


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


def _numeral(tok: _Token) -> int:
    if len(tok[1]) > MAX_DIGITS:
        raise ParseError(f"numeral of {len(tok[1])} digits exceeds {MAX_DIGITS}", tok[2], tok[3])
    return int(tok[1])


def _check_degree(degree: int, what: str, tok: _Token) -> None:
    if degree > MAX_DEGREE:
        raise ParseError(f"{what} of degree {degree} exceeds {MAX_DEGREE}", tok[2], tok[3])


def _expect(tok: _Token, kind: str) -> None:
    if tok[0] != kind:
        raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])


def _tokens(text: str) -> list[_Token]:
    """Every token of text and a closing "end" token; the whole text is scanned before any parsing."""
    # line and column are tracked as the scan goes; no token spans a newline
    tokens: list[_Token] = []
    n = len(text)
    i = 0
    line, line_start = 1, 0
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            if ch == "\n":
                line, line_start = line + 1, i + 1
            i += 1
            continue
        col = i - line_start + 1
        if ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], line, col))
            i = j
            continue
        if ch in "dlmi":
            tokens.append(("name", ch, line, col))
        elif ch in "+-*^/()":
            tokens.append((ch, ch, line, col))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        i += 1
    tokens.append(("end", "", line, n - line_start + 1))
    return tokens


def _atom_power(atom: dict, exponent: int) -> dict:
    """The term dict of atom**exponent, for the at most one term of a name or a numeral."""
    if not atom:
        return atom if exponent else _ONE.terms
    [((k0, k1, k2), c)] = atom.items()
    return {(k0 * exponent, k1 * exponent, k2 * exponent): c if c is ONE else c**exponent}


def _add_term(sums: dict, factors: list[dict], negate: bool) -> None:
    """sums += the product of factors, or minus it, unreduced.

    Each partial product before the last is reduced, since _add_products
    reads Scalar coefficients.
    """
    left = factors[0]
    last = len(factors) - 1
    if not last:
        _add_scaled(sums, _MINUS_ONE if negate else ONE, left)
        return
    for right in factors[1:last]:
        partial: dict = {}
        _add_products(partial, left, right)
        left = _reduce_sums(partial)
    if negate:
        left = {key: -c for key, c in left.items()}
    _add_products(sums, left, factors[last])


class _Parser:
    """Evaluates one text's tokens as it reads them, by index into one list.

    A factor is a term dict (see the module docstring), a term is the list
    of its factors, and an expression is a MultiPoly.
    """

    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.index = 0
        self.depth = 0
        # the largest product of nested exponents in the factor being parsed
        self.power = 1

    def parse(self) -> MultiPoly:
        value = self._expr()
        tok = self.tokens[self.index]
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2], tok[3])
        return value

    def _expr(self) -> MultiPoly:
        tokens = self.tokens
        negate = tokens[self.index][0] == "-"
        if negate:
            self.index += 1
        factors = self._term()
        kind = tokens[self.index][0]
        if kind != "+" and kind != "-" and not negate and len(factors) == 1:
            # a lone factor is already reduced
            return _raw(factors[0])
        sums: dict = {}
        _add_term(sums, factors, negate)
        while kind == "+" or kind == "-":
            self.index += 1
            _add_term(sums, self._term(), kind == "-")
            kind = tokens[self.index][0]
        return _raw(_reduce_sums(sums))

    def _term(self) -> list[dict]:
        tokens = self.tokens
        value, degree = self._factor()
        factors = [value]
        while tokens[self.index][0] == "*":
            tok = tokens[self.index]
            self.index += 1
            rhs, rhs_degree = self._factor()
            degree += rhs_degree
            _check_degree(degree, "product", tok)
            factors.append(rhs)
        return factors

    def _factor(self) -> tuple[dict, int]:
        """The factor's term dict and its total degree, the zero polynomial's counted as 0.

        Over Q(i) a product of nonzero factors has the sum of their degrees,
        so _term checks the cap without measuring any product; a zero factor
        only makes the check stricter.
        """
        outer, self.power = self.power, 1
        tokens = self.tokens
        tok = tokens[self.index]
        if tok[0] == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", tok[2], tok[3])
            self.index += 1
            self.depth += 1
            poly = self._expr()
            self.depth -= 1
            _expect(tokens[self.index], ")")
            self.index += 1
            value, degree = poly.terms, poly.total_degree() or 0
        else:
            poly = None
            value, degree = self._atom(tok)
        if tokens[self.index][0] == "^":
            tok = tokens[self.index + 1]
            _expect(tok, "int")
            self.index += 2
            # a long digit string is over the cap without converting it
            digits = tok[1].lstrip("0") or "0"
            exponent = int(digits) if len(digits) <= 4 else MAX_EXPONENT + 1
            power = self.power * exponent
            if power > MAX_EXPONENT:
                base = f" on a base already raised to {self.power}" if self.power > 1 else ""
                raise ParseError(f"exponent {tok[1]}{base} exceeds {MAX_EXPONENT}", tok[2], tok[3])
            degree *= exponent
            _check_degree(degree, "power", tok)
            self.power = power
            # a spec repeats its powers, so each distinct one expands once
            value = _atom_power(value, exponent) if poly is None else _power(poly, exponent).terms
        self.power = max(outer, self.power)
        return value, degree

    def _atom(self, tok: _Token) -> tuple[dict, int]:
        """The term dict and degree of a name or a numeral at tok."""
        kind = tok[0]
        if kind == "name":
            self.index += 1
            return _NAMES[tok[1]], 0 if tok[1] == "i" else 1
        if kind == "int":
            numer, denom = _numeral(tok), 1
            if self.tokens[self.index + 1][0] == "/":
                den = self.tokens[self.index + 2]
                _expect(den, "int")
                denom = _numeral(den)
                if denom == 0:
                    raise ParseError("zero denominator", den[2], den[3])
                self.index += 2
            self.index += 1
            return ({_ZERO_KEY: _reduced(numer, 0, denom)} if numer else {}), 0
        raise ParseError(f"expected a value, found {tok[1] or 'end of input'!r}", tok[2], tok[3])


def parse_poly(text: str) -> MultiPoly:
    return _Parser(text).parse()


def parse_scalar(text: str) -> Scalar:
    poly = parse_poly(text)
    value = poly.constant_value()
    if value is None:
        raise ParseError(f"expected a constant, got {poly.render()!r}", 1, 1)
    return value
