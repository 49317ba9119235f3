"""Hypothesis properties of the input boundary: the polynomial parser, the
spec parser and the command line each give a value or a named refusal,
never another exception.

The size arguments the strategies draw are small, so each example runs in
milliseconds; the caps on large sizes are tested in test_cli.py.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lieconformal import cli
from lieconformal.algebra import InvalidStructure
from lieconformal.parsing import ParseError, parse_poly
from lieconformal.poly import MultiPoly
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
