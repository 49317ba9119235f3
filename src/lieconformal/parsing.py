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
"""

from __future__ import annotations

from fractions import Fraction

from .poly import MultiPoly
from .scalars import Scalar


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


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


def _numeral(tok: tuple[str, str, int, int]) -> int:
    if len(tok[1]) > MAX_DIGITS:
        raise ParseError(f"numeral of {len(tok[1])} digits exceeds {MAX_DIGITS}", tok[2], tok[3])
    return int(tok[1])


def _check_degree(degree: int, what: str, tok: tuple[str, str, int, int]) -> None:
    if degree > MAX_DEGREE:
        raise ParseError(f"{what} of degree {degree} exceeds {MAX_DEGREE}", tok[2], tok[3])


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int, int]] = []
        self._scan()
        self.index = 0

    def _scan(self):
        # line and column are tracked as the scan goes; no token spans a newline
        text = self.text
        i = 0
        line, line_start = 1, 0
        while i < len(text):
            ch = text[i]
            if ch in " \t\r\n":
                if ch == "\n":
                    line, line_start = line + 1, i + 1
                i += 1
                continue
            col = i - line_start + 1
            if ch in _DIGITS:
                j = i
                while j < len(text) and text[j] in _DIGITS:
                    j += 1
                self.tokens.append(("int", text[i:j], line, col))
                i = j
            elif ch in "dlmi":
                self.tokens.append(("name", ch, line, col))
                i += 1
            elif ch in "+-*^/()":
                self.tokens.append((ch, ch, line, col))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
        self.tokens.append(("end", "", line, len(text) - line_start + 1))

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.index]

    def take(self, kind: str | None = None) -> tuple[str, str, int, int]:
        tok = self.tokens[self.index]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        self.index += 1
        return tok


class _Parser:
    def __init__(self, text: str):
        self.toks = _Tokenizer(text)
        self.depth = 0
        # the largest product of nested exponents in the factor being parsed
        self.power = 1

    def parse(self) -> MultiPoly:
        value = self._expr()
        tok = self.toks.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2], tok[3])
        return value

    def _expr(self) -> MultiPoly:
        negate = False
        if self.toks.peek()[0] == "-":
            self.toks.take()
            negate = True
        value = self._term()
        if negate:
            value = -value
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.take()[0]
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> MultiPoly:
        value, degree = self._factor()
        while self.toks.peek()[0] == "*":
            tok = self.toks.take()
            rhs, rhs_degree = self._factor()
            degree += rhs_degree
            _check_degree(degree, "product", tok)
            value = value * rhs
        return value

    def _factor(self) -> tuple[MultiPoly, int]:
        """The factor and its total degree, the zero polynomial's counted as 0.

        Over Q(i) a product of nonzero factors has the sum of their degrees,
        so _term checks the cap without measuring any product; a zero factor
        only makes the check stricter.
        """
        outer, self.power = self.power, 1
        value, degree = self._atom()
        if self.toks.peek()[0] == "^":
            self.toks.take()
            tok = self.toks.take("int")
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
            value = value**exponent
        self.power = max(outer, self.power)
        return value, degree

    def _atom(self) -> tuple[MultiPoly, int]:
        tok = self.toks.peek()
        kind = tok[0]
        if kind == "name":
            self.toks.take()
            if tok[1] == "i":
                return MultiPoly.const(Scalar(0, 1)), 0
            return MultiPoly.variable(tok[1]), 1
        if kind == "int":
            self.toks.take()
            numer = _numeral(tok)
            if self.toks.peek()[0] == "/":
                self.toks.take()
                den = self.toks.take("int")
                denom = _numeral(den)
                if denom == 0:
                    raise ParseError("zero denominator", den[2], den[3])
                return MultiPoly.const(Scalar(Fraction(numer, denom))), 0
            return MultiPoly.const(Scalar(numer)), 0
        if kind == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", tok[2], tok[3])
            self.toks.take()
            self.depth += 1
            value = self._expr()
            self.depth -= 1
            self.toks.take(")")
            return value, value.total_degree() or 0
        raise ParseError(f"expected a value, found {tok[1] or 'end of input'!r}", tok[2], tok[3])


def parse_poly(text: str) -> MultiPoly:
    return _Parser(text).parse()


def parse_scalar(text: str) -> Scalar:
    poly = parse_poly(text)
    value = poly.constant_value()
    if value is None:
        raise ParseError(f"expected a constant, got {poly.render()!r}", 1, 1)
    return value
