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
exponents of nested powers, as 6 in (d^2)^3: a short entry cannot ask for
a polynomial of huge degree or a constant of huge size.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import MultiPoly
from .scalars import Scalar


# deeper parenthesis nesting is refused rather than left to exhaust the stack
_MAX_NESTING = 100
MAX_EXPONENT = 16
_DIGITS = "0123456789"


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


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
        value = self._factor()
        while self.toks.peek()[0] == "*":
            self.toks.take()
            value = value * self._factor()
        return value

    def _factor(self) -> MultiPoly:
        outer, self.power = self.power, 1
        value = self._atom()
        if self.toks.peek()[0] == "^":
            self.toks.take()
            tok = self.toks.take("int")
            # a long digit string is over the cap without converting it
            power = self.power * int(tok[1]) if len(tok[1].lstrip("0")) <= 4 else MAX_EXPONENT + 1
            if power > MAX_EXPONENT:
                base = f" on a base already raised to {self.power}" if self.power > 1 else ""
                raise ParseError(f"exponent {tok[1]}{base} exceeds {MAX_EXPONENT}", tok[2], tok[3])
            self.power = power
            value = value ** int(tok[1])
        self.power = max(outer, self.power)
        return value

    def _atom(self) -> MultiPoly:
        tok = self.toks.peek()
        kind = tok[0]
        if kind == "name":
            self.toks.take()
            if tok[1] == "i":
                return MultiPoly.const(Scalar(0, 1))
            return MultiPoly.variable(tok[1])
        if kind == "int":
            self.toks.take()
            numer = int(tok[1])
            if self.toks.peek()[0] == "/":
                self.toks.take()
                den = self.toks.take("int")
                if int(den[1]) == 0:
                    raise ParseError("zero denominator", den[2], den[3])
                return MultiPoly.const(Scalar(Fraction(numer, int(den[1]))))
            return MultiPoly.const(Scalar(numer))
        if kind == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", tok[2], tok[3])
            self.toks.take()
            self.depth += 1
            value = self._expr()
            self.depth -= 1
            self.toks.take(")")
            return value
        raise ParseError(f"expected a value, found {tok[1] or 'end of input'!r}", tok[2], tok[3])


def parse_poly(text: str) -> MultiPoly:
    return _Parser(text).parse()


def parse_scalar(text: str) -> Scalar:
    poly = parse_poly(text)
    value = poly.constant_value()
    if value is None:
        raise ParseError(f"expected a constant, got {poly.render()!r}", 1, 1)
    return value
