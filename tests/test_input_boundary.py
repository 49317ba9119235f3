"""Hypothesis properties of the input boundary: the polynomial parser, the
spec parser and the command line each give a value or a named refusal,
never another exception.

The size arguments the strategies draw are small, so each example runs in
milliseconds; the caps on large sizes are tested in test_cli.py.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lieconformal import cli
from lieconformal.algebra import InvalidStructure
from lieconformal.parsing import MAX_DEGREE, MAX_DIGITS, MAX_EXPONENT, ParseError, parse_poly
from lieconformal.poly import MultiPoly
from lieconformal.scalars import Scalar
from lieconformal.specfile import DuplicateDefinition, SpecFile, UnknownGenerator, parse_spec

_POLY_ALPHABET = "dlmi0123456789+-*/^() ."
_poly_text = st.text(alphabet=_POLY_ALPHABET, max_size=24) | st.text(max_size=8)


@settings(max_examples=300, deadline=None)
@given(_poly_text)
def test_parse_poly_returns_a_polynomial_or_a_parse_error(text):
    try:
        result = parse_poly(text)
    except ParseError:
        return
    assert isinstance(result, MultiPoly)


class _ReferenceParser:
    """The grammar of lieconformal.parsing evaluated one MultiPoly operation
    at a time: every atom a polynomial, every numeral a Fraction, and every
    '*', '+' and '-' a reduced polynomial.  The caps, the refusals and their
    locations are those of the library's parser."""

    def __init__(self, text):
        self.tokens = self._scan(text)
        self.index = 0
        self.depth = 0
        self.power = 1

    @staticmethod
    def _scan(text):
        tokens = []
        i, line, line_start = 0, 1, 0
        while i < len(text):
            ch = text[i]
            if ch in " \t\r\n":
                if ch == "\n":
                    line, line_start = line + 1, i + 1
                i += 1
                continue
            col = i - line_start + 1
            if ch in "0123456789":
                j = i
                while j < len(text) and text[j] in "0123456789":
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
        tokens.append(("end", "", line, len(text) - line_start + 1))
        return tokens

    def peek(self):
        return self.tokens[self.index]

    def take(self, kind=None):
        tok = self.tokens[self.index]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        self.index += 1
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2], tok[3])
        return value

    def expr(self):
        negate = self.peek()[0] == "-"
        if negate:
            self.take()
        value = self.term()
        if negate:
            value = -value
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value, degree = self.factor()
        while self.peek()[0] == "*":
            tok = self.take()
            rhs, rhs_degree = self.factor()
            degree += rhs_degree
            if degree > MAX_DEGREE:
                raise ParseError(f"product of degree {degree} exceeds {MAX_DEGREE}", tok[2], tok[3])
            value = value * rhs
        return value

    def factor(self):
        outer, self.power = self.power, 1
        value, degree = self.atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take("int")
            digits = tok[1].lstrip("0") or "0"
            exponent = int(digits) if len(digits) <= 4 else MAX_EXPONENT + 1
            power = self.power * exponent
            if power > MAX_EXPONENT:
                base = f" on a base already raised to {self.power}" if self.power > 1 else ""
                raise ParseError(f"exponent {tok[1]}{base} exceeds {MAX_EXPONENT}", tok[2], tok[3])
            degree *= exponent
            if degree > MAX_DEGREE:
                raise ParseError(f"power of degree {degree} exceeds {MAX_DEGREE}", tok[2], tok[3])
            self.power = power
            value = value**exponent
        self.power = max(outer, self.power)
        return value, degree

    def numeral(self, tok):
        if len(tok[1]) > MAX_DIGITS:
            raise ParseError(f"numeral of {len(tok[1])} digits exceeds {MAX_DIGITS}", tok[2], tok[3])
        return int(tok[1])

    def atom(self):
        tok = self.peek()
        if tok[0] == "name":
            self.take()
            if tok[1] == "i":
                return MultiPoly.const(Scalar(0, 1)), 0
            return MultiPoly.variable(tok[1]), 1
        if tok[0] == "int":
            self.take()
            numer = self.numeral(tok)
            if self.peek()[0] == "/":
                self.take()
                den = self.take("int")
                denom = self.numeral(den)
                if denom == 0:
                    raise ParseError("zero denominator", den[2], den[3])
                return MultiPoly.const(Scalar(Fraction(numer, denom))), 0
            return MultiPoly.const(Scalar(numer)), 0
        if tok[0] == "(":
            if self.depth == 100:
                raise ParseError("parentheses nested deeper than 100", tok[2], tok[3])
            self.take()
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            self.take(")")
            return value, value.total_degree() or 0
        raise ParseError(f"expected a value, found {tok[1] or 'end of input'!r}", tok[2], tok[3])


def _outcome(parse, text):
    """The polynomial's terms, or the refusal's message, line and column."""
    try:
        return parse(text).terms
    except ParseError as exc:
        return (exc.message, exc.line, exc.column)


# texts of the grammar: leading minus, nested parentheses, powers (nested
# ones past MAX_EXPONENT too), i, p/q, zero numerals and factors, and
# blanks and newlines between the tokens
_blank = st.sampled_from(("", "", " ", "\n", " \n  "))
_grammar_atom = st.sampled_from(("d", "l", "m", "i", "0", "1", "2", "7", "1/2", "3/4", "0/5", "12/8", "00"))
_exponent = st.sampled_from((0, 1, 2, 3, 5, 17))


def _grammar_extend(inner):
    return st.one_of(
        st.builds(lambda a, op, b, s, t: f"{a}{s}{op}{t}{b}", inner, st.sampled_from("+-*"), inner, _blank, _blank),
        st.builds(lambda a, s: f"-{s}{a}", inner, _blank),
        st.builds(lambda a, s, t: f"({s}{a}{t})", inner, _blank, _blank),
        st.builds(lambda a, e, s: f"({a}){s}^{e}", inner, _exponent, _blank),
        st.builds(lambda a, e: f"{a}^{e}", _grammar_atom, _exponent),
    )


_grammar_text = st.recursive(_grammar_atom, _grammar_extend, max_leaves=8)


@st.composite
def _mutated(draw, texts):
    """A grammar text with one character replaced, inserted or deleted."""
    text = draw(texts)
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from("dlmi0123456789+-*/^() \n?"))
    edit = draw(st.sampled_from(("replace", "insert", "delete")))
    if edit == "insert":
        return text[:at] + char + text[at:]
    if edit == "delete":
        return text[:at] + text[at + 1:]
    return text[:at] + char + text[at + 1:]


@settings(max_examples=400, deadline=None)
@given(_grammar_text | _mutated(_grammar_text))
def test_parse_poly_agrees_with_an_operation_at_a_time_evaluation(text):
    assert _outcome(parse_poly, text) == _outcome(lambda t: _ReferenceParser(t).parse(), text)


_SPEC_LINES = (
    "[algebra]", "[module M]", "[module]", "[other]", "[algebra",
    "generators = L", "generators = L, W", "grades = 0", "grades = 0, 1",
    "builtin = virasoro", "builtin = block", "builtin = current", "builtin = nope",
    "p = 1", "p = 0", "truncation = 2", "n = 2", "lie = sl2", "lie = abelian2", "a = 1/2",
    "basis = v", "basis = v, w", "virasoro_gen = 0", "= d",
)
_KEYS = ("p_00", "p_0_0", "p_01", "p_0_1_1", "p_11", "p_x", "action_0", "action_1", "grades")
_spec_text = st.lists(
    st.one_of(
        st.sampled_from(_SPEC_LINES),
        st.builds(lambda key, value: f"{key} = {value}", st.sampled_from(_KEYS), _poly_text),
        st.text(max_size=12),
    ),
    max_size=8,
).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(_spec_text)
def test_parse_spec_returns_a_spec_or_a_named_refusal(text):
    try:
        result = parse_spec(text)
    except (ParseError, InvalidStructure, UnknownGenerator, DuplicateDefinition):
        return
    assert isinstance(result, SpecFile)


_VIR_SPEC = """
[algebra]
generators = L
grades = 0
p_00 = d + 2*l

[module M]
basis = v
action_0 = d + 2*l
"""

_BLOCK_SPEC = """
[algebra]
builtin = block
p = 1
truncation = 2
"""


@pytest.fixture(scope="module")
def spec_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    paths = []
    for name, text in (("vir.lca", _VIR_SPEC), ("block.lca", _BLOCK_SPEC), ("bad.lca", "[algebra]\np_00 = d +\n")):
        path = root / name
        path.write_text(text)
        paths.append(str(path))
    return paths + [str(root), str(root / "missing.lca")]


# Values a flag may take: well formed and malformed, every size at most 3.
# Free text never starts with "-", so it cannot spell an abbreviation of
# --json and write a report into the working directory.
_value = st.sampled_from((
    "0", "1", "2", "3", "-1", "1/2", "2+i", "3/2,2", "d", "l", "", ",", "1,,2",
    "d,1;0,d", "d,1;0", "d;1", "den2", "den2:1:2", "den0", "M", "N", "1/0",
)) | st.text(alphabet=st.characters(blacklist_characters="0123456789"), max_size=4).filter(
    lambda text: not text.startswith("-")
)

_SUBCOMMANDS = {
    "check-algebra": (True, ()),
    "check-module": (True, ("--module",)),
    "annih-check": (True, ("--depth",)),
    "weights": (True, ("--module", "--degree", "--gen")),
    "solve-funceq": (False, ("--a", "--b", "--delta-i", "--c-i", "--delta-j", "--c-j",
                             "--degree-bound", "--homogeneous", "--variant")),
    "verify-prop36": (False, ("--a-samples", "--delta-samples")),
    "scan-a1": (False, ("--grid", "--horizon")),
    "snf": (False, ("--matrix",)),
}


@st.composite
def _argvs(draw, paths):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    takes_spec, flags = _SUBCOMMANDS[command]
    argv = [command]
    if takes_spec:
        argv.append(draw(st.sampled_from(paths) | _value))
    for flag in draw(st.permutations(flags))[: draw(st.integers(0, len(flags)))]:
        argv.append(flag)
        if flag != "--variant":
            argv.append(draw(_value))
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_run_returns_an_exit_code_and_raises_nothing(spec_paths, data):
    argv = data.draw(_argvs(spec_paths))
    assert cli.run(argv) in (0, 1, 2, 3)
