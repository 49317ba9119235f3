import pytest

from lieconformal.algebra import bracket, check_jacobi, check_skew
from lieconformal.modules import check_module
from lieconformal.parsing import MAX_DEGREE, MAX_DIGITS, MAX_EXPONENT, ParseError, parse_poly
from lieconformal.poly import D, L, MultiPoly
from lieconformal.scalars import Scalar
from lieconformal.specfile import MAX_GENERATORS, DuplicateDefinition, UnknownGenerator, parse_spec

VIR = """
[algebra]
generators = L
grades = 0
p_00 = "d + 2*l"

[module M]
basis = v
action_0 = "d + 2*l"
"""


def test_parse_virasoro_table_entry():
    spec = parse_spec(VIR)
    A = spec.algebra
    assert A.entry(0, 0) == {0: D + 2 * L}
    assert check_module(A, spec.modules["M"]).passed


def test_parse_block_like_entry():
    text = """
[algebra]
generators = L0 L1 L2 L3
grades = 0 1 2 3
truncation = 3
p_00 = d + 2*l
p_01 = d + 3*l
p_10 = 2*d + 3*l
p_12 = "2*d + 5*l"
p_21 = 3*d + ( -2*l - 2*d ) + 7*l + 2*d
p_02 = d + 4*l
p_20 = 3*d + 4*l
p_03 = d + 5*l
p_30 = 4*d + 5*l
p_11 = 2*d + 4*l
"""
    spec = parse_spec(text)
    A = spec.algebra
    assert A.entry(1, 2) == {3: 2 * D + 5 * L}
    assert check_skew(A).passed


def test_parse_error_location():
    with pytest.raises(ParseError) as err:
        parse_poly("d + + l")
    assert err.value.column == 5


def test_parse_error_location_multi_line():
    with pytest.raises(ParseError) as err:
        parse_poly("d +\n  2*l\n\t+ ?")
    assert (err.value.line, err.value.column) == (3, 4)
    with pytest.raises(ParseError) as err:
        parse_poly("d +\n\n")
    assert (err.value.line, err.value.column) == (3, 1)


def test_parser_edge_cases():
    with pytest.raises(ParseError):
        parse_poly("1/0")
    with pytest.raises(ParseError):
        parse_poly("d + ?")
    with pytest.raises(ParseError):
        parse_poly("d^l")
    with pytest.raises(ParseError):
        parse_poly("(d + l")
    with pytest.raises(ParseError):
        parse_poly("d l")  # juxtaposition is not multiplication
    with pytest.raises(ParseError):
        parse_poly("")
    # only the ASCII digits 0-9 are digits
    for text, column in (("\u00b2", 1), ("d^\u00b2", 3), ("\u0663*d", 1), ("2*d + 1\u0661", 8)):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert (err.value.line, err.value.column) == (1, column)
    # nesting is bounded, so deep input is refused before it exhausts the stack
    assert parse_poly("(" * 100 + "d" + ")" * 100) == D
    with pytest.raises(ParseError) as err:
        parse_poly("(" * 3000 + "d" + ")" * 3000)
    assert (err.value.line, err.value.column) == (1, 101)


def test_exponents_are_capped():
    cap = MAX_EXPONENT
    assert parse_poly(f"d^{cap}") == D**cap
    assert parse_poly(f"(d^2)^{cap // 2} + l^{cap}").total_degree() == cap
    # the cap bounds each exponent, and the product of nested exponents
    for text, column, message in (
        (f"d^{cap + 1}", 3, f"exponent {cap + 1} exceeds {cap}"),
        ("2*l + d^800", 9, f"exponent 800 exceeds {cap}"),
        ("d^" + "9" * 5000, 3, f"exponent {'9' * 5000} exceeds {cap}"),
        (f"(d + (l^2)^2)^{cap // 4 + 1}", 15, f"exponent {cap // 4 + 1} on a base already raised to 4 exceeds {cap}"),
    ):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert (err.value.line, err.value.column, err.value.message) == (1, column, message)
    # in a spec the error names the entry's line and column
    spec = "[algebra]\ngenerators = L\ngrades = 0\np_0_0_0 = d^800 + 2*l\n"
    with pytest.raises(ParseError) as err:
        parse_spec(spec)
    assert (err.value.line, err.value.column) == (4, 13)


def test_long_numerals_are_parse_errors():
    assert parse_poly("9" * MAX_DIGITS) == MultiPoly.const(Scalar(int("9" * MAX_DIGITS)))
    long = "9" * (MAX_DIGITS + 1)
    for text, column in ((long, 1), ("1/" + long, 3), ("d + " + long + "/2", 5)):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        message = f"numeral of {MAX_DIGITS + 1} digits exceeds {MAX_DIGITS}"
        assert (err.value.line, err.value.column, err.value.message) == (1, column, message)
    # leading zeros in an exponent are no numeral to convert
    assert parse_poly("d^" + "0" * 5000 + "2") == D * D


def test_degrees_of_products_are_capped():
    cap = MAX_DEGREE
    assert parse_poly(f"(d + l + 1)^{cap // 2}*(d + l + 1)^{cap // 2}").total_degree() == cap
    assert parse_poly(f"2^{MAX_EXPONENT}*d^{cap // 2}*l^{cap // 2}").total_degree() == cap
    # checked before each product and power is multiplied out
    for text, column, message in (
        ("(d + l + 1)^12*(d + l + 1)^12 + 2*l", 15, f"product of degree 24 exceeds {cap}"),
        (f"d^{cap}*l", 5, f"product of degree {cap + 1} exceeds {cap}"),
        (f"(d*l)^{cap // 2 + 1}", 7, f"power of degree {cap + 2} exceeds {cap}"),
    ):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert (err.value.line, err.value.column, err.value.message) == (1, column, message)
    spec = "[algebra]\ngenerators = L\ngrades = 0\np_0_0_0 = (d + l + 1)^12*(d + l + 1)^12 + 2*l\n"
    with pytest.raises(ParseError) as err:
        parse_spec(spec)
    assert (err.value.line, err.value.column) == (4, 25)


def test_parse_error_in_spec_entry():
    bad = VIR.replace("d + 2*l", "d + + l", 1)
    with pytest.raises(ParseError):
        parse_spec(bad)
    for key in ("p_\u00b20", "p_\u00b2_0", "p_0_\u0661"):
        with pytest.raises(ParseError) as err:
            parse_spec(VIR.replace("p_00", key))
        assert err.value.line == 5
    with pytest.raises(ParseError) as err:
        parse_spec(VIR.replace("action_0", "action_\u00b2"))
    assert err.value.line == 9
    # an error inside an entry names the spec line, once
    deep = "[algebra]\ngenerators = L\np_000 = " + "(" * 3000 + "d" + ")" * 3000 + "\n"
    with pytest.raises(ParseError) as err:
        parse_spec(deep)
    assert err.value.line == 3
    assert str(err.value) == "parentheses nested deeper than 100 (line 3, column 109)"
    # the column counts from the start of the spec line: past a quote, past
    # an earlier pair on the same line, and into the cells of an action matrix
    algebra = "[algebra]\ngenerators = L\n"
    module = "grades = 0\np_00 = d + 2*l\n[module M]\nbasis = u v\n"
    for text, line, column in (
        (algebra + "grades = 0\np_00 = 'd + + l'\n", 4, 13),
        (algebra + "grades = 0;  p_00 =  d + + l\n", 3, 26),
        (algebra + module + "action_0 = d, 1; 1,  d + + l\n", 7, 26),
        (algebra + module + 'action_0 = "d, 1;  1, d*m"\n', 7, 23),
    ):
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert text.splitlines()[line - 1][column - 1] in "+d"
    # integer values take at most 640 of the ASCII digits 0-9 only, so that
    # int() converts them, and fail with their line
    block = "[algebra]\nbuiltin = block\np = 1\ntruncation = 3\n"
    semidirect = "[algebra]\nbuiltin = vir_semidirect_current\na = 1\nlie = abelian2\n"
    huge = "9" * 5000
    for text, line in (
        (block.replace("truncation = 3", f"truncation = {huge}"), 4),
        (VIR.replace("grades = 0", f"grades = {huge}"), 4),
        (VIR.replace("p_00", f"p_{huge}_0"), 5),
        (VIR.replace("action_0", f"action_{huge}"), 9),
        (VIR.replace("grades = 0", "grades = 0\ntruncation = \u0663"), 5),
        (VIR.replace("grades = 0", "grades = \u0660"), 4),
        (VIR.replace("grades = 0", "grades = 0\ntruncation = x"), 5),
        (VIR.replace("grades = 0", "grades = 0\nvirasoro_gen = \u0660"), 5),
        (block.replace("truncation = 3", "truncation = \u0663"), 4),
        (semidirect.replace("abelian2", "abelian\u0662"), 4),
    ):
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        assert err.value.line == line
    assert parse_spec(block).algebra.truncation == 3
    assert parse_spec(semidirect).algebra.n_gens == 3


def test_unknown_generator():
    bad = """
[algebra]
generators = L
grades = 0
p_01 = d
"""
    with pytest.raises(UnknownGenerator):
        parse_spec(bad)


def test_duplicate_definition():
    bad = """
[algebra]
generators = L
grades = 0
p_00 = d + 2*l
p_00 = d
"""
    with pytest.raises(DuplicateDefinition):
        parse_spec(bad)


def test_duplicate_module_section():
    bad = VIR + "\n[module M]\nbasis = w\n"
    with pytest.raises(DuplicateDefinition):
        parse_spec(bad)


def test_generators_are_capped():
    cap = MAX_GENERATORS
    explicit = "[algebra]\ngenerators = " + " ".join(f"g{i}" for i in range(cap)) + "\n"
    block = "[algebra]\nbuiltin = block\np = 1\ntruncation = {}\n"
    poly = "[algebra]\nbuiltin = map_virasoro_poly\nn = {}\n"
    current = "[algebra]\nbuiltin = {}\na = 1\nlie = abelian{}\n"
    for text in (explicit, block.format(cap - 1), current.format("current", cap),
                 current.format("vir_semidirect_current", cap - 1)):
        assert parse_spec(text).algebra.n_gens == cap
    # one more is a parse error at the value on its spec line, raised before
    # the algebra is built: block(3000) alone would take minutes
    for text, count, line, column in (
        (explicit.replace("= ", "= extra "), cap + 1, 2, 14),
        (block.format(cap), cap + 1, 4, 14),
        (block.format(3000), 3001, 4, 14),
        (poly.format(cap + 1), cap + 1, 3, 5),
        (current.format("current", cap + 1), cap + 1, 4, 7),
        (current.format("vir_semidirect_current", cap), cap + 1, 4, 7),
        (current.format("current", 3000), 3000, 4, 7),
    ):
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        message = f"{count} generators exceed {cap}"
        assert (err.value.line, err.value.column, err.value.message) == (line, column, message)


def test_builtin_sections_with_quoted_parameters():
    spec = parse_spec('[algebra]\nbuiltin = "block"\np = "1"\ntruncation = 8\n')
    assert spec.algebra.n_gens == 9


def test_builtin_one_line_form():
    spec = parse_spec('[algebra]\nbuiltin = "block"; p = "1"; truncation = 8\n')
    assert spec.algebra.n_gens == 9
    assert spec.algebra.truncation == 8


def test_matrix_rows_are_not_split_as_pairs():
    text = """
[algebra]
generators = L
grades = 0
p_00 = d + 2*l

[module M]
basis = u w
action_0 = d+2*l, 0 ; 0, d+2*l
"""
    spec = parse_spec(text)
    mat = spec.modules["M"].action(0)
    assert mat[0][0] == mat[1][1]
    assert mat[0][1].is_zero() and mat[1][0].is_zero()


def test_builtin_sections():
    spec = parse_spec("[algebra]\nbuiltin = block\np = 1\ntruncation = 8\n")
    assert spec.algebra.n_gens == 9
    assert bracket(spec.algebra, spec.algebra.gen(1), spec.algebra.gen(2)) == {
        3: 2 * D + 5 * L
    }
    spec = parse_spec("[algebra]\nbuiltin = map_virasoro_poly\nn = 9\n")
    assert spec.algebra.truncation == 8
    spec = parse_spec(
        "[algebra]\nbuiltin = vir_semidirect_current\na = 0\nlie = nonabelian2\n"
    )
    assert not check_jacobi(spec.algebra).passed


def test_explicit_target_components():
    text = """
[algebra]
generators = x y
p_0_1_0 = 1
p_1_0_0 = -1
"""
    spec = parse_spec(text)
    assert spec.algebra.entry(0, 1) == {0: parse_poly("1")}
    assert check_skew(spec.algebra).passed


def test_rendering_round_trip_through_grammar():
    samples = [
        D + 2 * L,
        -D - 2 * L,
        D * D - L * L,
        parse_poly("(1/2+1*i)*d^2 - 3/4*l"),
        parse_poly("0"),
    ]
    for p in samples:
        assert parse_poly(p.render()) == p
