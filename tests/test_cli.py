import dataclasses
import json
import os
import subprocess
import sys

import pytest

jsonschema = pytest.importorskip("jsonschema")

from lieconformal import cli

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "schemas", "report.schema.json")

VIR_SPEC = """
[algebra]
generators = L
grades = 0
p_00 = d + 2*l

[module M]
basis = v
action_0 = d + 2*l
"""

BAD_TWIST = """
[algebra]
builtin = vir_semidirect_current
a = 0
lie = nonabelian2
"""


@pytest.fixture()
def schema():
    with open(SCHEMA_PATH) as fh:
        return json.load(fh)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_check_algebra_pass(tmp_path, schema):
    spec = _write(tmp_path, "vir.lca", VIR_SPEC)
    out = str(tmp_path / "report.json")
    assert cli.run(["check-algebra", spec, "--json", out]) == 0
    payload = _load(out)
    jsonschema.validate(payload, schema)
    assert payload["status"] == "pass"


def test_check_algebra_failure_exit_code(tmp_path, schema):
    spec = _write(tmp_path, "bad.lca", BAD_TWIST)
    out = str(tmp_path / "report.json")
    assert cli.run(["check-algebra", spec, "--json", out]) == 1
    payload = _load(out)
    jsonschema.validate(payload, schema)
    assert payload["status"] == "fail"
    assert any(c["witnesses"] for c in payload["report"]["checks"] if c["status"] == "fail")


def test_spec_error_exit_code(tmp_path):
    spec = _write(tmp_path, "broken.lca", "[algebra]\ngenerators = L\np_00 = d + + l\n")
    assert cli.run(["check-algebra", spec]) == 2
    assert cli.run(["check-algebra", str(tmp_path / "missing.lca")]) == 2


def test_deeply_nested_entry_exit_code(tmp_path, capsys):
    entry = "(" * 3000 + "d" + ")" * 3000
    spec = _write(tmp_path, "deep.lca", f"[algebra]\ngenerators = L\np_000 = {entry}\n")
    assert cli.run(["check-algebra", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested deeper" in err


def test_oversized_entries_exit_code(tmp_path, capsys):
    for entry, message in (
        ("9" * 5000, "numeral of 5000 digits exceeds 640 (line 3, column 9)"),
        ("(d + l + 1)^12*(d + l + 1)^12 + 2*l", "product of degree 24 exceeds 16 (line 3, column 23)"),
    ):
        spec = _write(tmp_path, "big.lca", f"[algebra]\ngenerators = L\np_000 = {entry}\n")
        assert cli.run(["check-algebra", spec]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_builtin_parameter_error_names_its_spec_location(tmp_path, capsys):
    spec = _write(tmp_path, "p.lca", "[algebra]\nbuiltin = block\np = 1/0\ntruncation = 2\n")
    assert cli.run(["check-algebra", spec]) == 2
    assert capsys.readouterr().err == "error: zero denominator (line 3, column 7)\n"


def test_truncation_exit_code(monkeypatch):
    from lieconformal.algebra import TruncationExceeded

    def boom(args):
        raise TruncationExceeded("synthetic")

    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    args = parser.parse_args(["check-algebra", "unused"])
    monkeypatch.setattr(args, "func", boom, raising=False)
    monkeypatch.setattr(parser, "parse_args", lambda argv: args)
    assert cli.run(["check-algebra", "unused"]) == 3


def test_check_module_and_weights(tmp_path, schema):
    spec = _write(tmp_path, "vir.lca", VIR_SPEC)
    out = str(tmp_path / "mod.json")
    assert cli.run(["check-module", spec, "--module", "M", "--json", out]) == 0
    jsonschema.validate(_load(out), schema)
    out2 = str(tmp_path / "weights.json")
    assert cli.run(["weights", spec, "--module", "M", "--degree", "3", "--json", out2]) == 0
    payload = _load(out2)
    jsonschema.validate(payload, schema)
    weights = {w["weight"]: w["dim"] for w in payload["data"]["weights"]}
    assert weights == {"2": 1, "3": 1, "4": 1, "5": 1}


CONJUGATED_SPEC = VIR_SPEC + """
[module C]
basis = v1 v2
action_0 = d + l, l ; l, d + l
"""


def test_weights_refuses_a_non_triangular_window(tmp_path, capsys):
    spec = _write(tmp_path, "vir.lca", CONJUGATED_SPEC)
    assert cli.run(["check-module", spec, "--module", "C"]) == 0
    capsys.readouterr()
    assert cli.run(["weights", spec, "--module", "C", "--degree", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not triangular" in err
    assert "Traceback" not in err



def test_weights_refuses_a_generator_past_the_algebra(tmp_path, capsys):
    # the spec's virasoro_gen is refused on its line, --gen by its argument;
    # both named the missing action matrix's KeyError before
    spec = _write(tmp_path, "vir.lca", VIR_SPEC.replace("grades = 0", "grades = 0\nvirasoro_gen = 5"))
    assert cli.run(["weights", spec, "--module", "M", "--degree", "2"]) == 2
    err = capsys.readouterr().err
    assert "virasoro_gen 5 is past the algebra" in err and "(line 5, column 16)" in err
    spec = _write(tmp_path, "vir.lca", VIR_SPEC)
    assert cli.run(["weights", spec, "--module", "M", "--degree", "2", "--gen", "7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument --gen: generator 7") and "1 generators" in err
    assert "Traceback" not in err and "action matrix" not in err
    assert cli.run(["weights", spec, "--module", "M", "--degree", "2", "--gen", "0"]) == 0

def test_annih_check(tmp_path, schema):
    spec = _write(tmp_path, "vir.lca", VIR_SPEC)
    out = str(tmp_path / "annih.json")
    assert cli.run(["annih-check", spec, "--depth", "4", "--json", out]) == 0
    jsonschema.validate(_load(out), schema)


def test_solve_and_scan_and_snf(tmp_path, schema):
    out = str(tmp_path / "solve.json")
    assert cli.run([
        "solve-funceq", "--a", "2", "--b", "0",
        "--delta-i", "5", "--c-i", "7", "--delta-j", "5", "--c-j", "7",
        "--degree-bound", "2", "--json", out,
    ]) == 0
    payload = _load(out)
    jsonschema.validate(payload, schema)
    assert payload["data"]["dimension"] == 1

    out2 = str(tmp_path / "scan.json")
    assert cli.run(["scan-a1", "--grid", "2,5/4", "--horizon", "6", "--json", out2]) == 0
    payload = _load(out2)
    jsonschema.validate(payload, schema)
    flags = {r["a1"]: r["admissible"] for r in payload["data"]["results"]}
    assert flags == {"2": True, "5/4": False}

    out3 = str(tmp_path / "snf.json")
    assert cli.run(["snf", "--matrix", "d,1;0,d", "--json", out3]) == 0
    payload = _load(out3)
    jsonschema.validate(payload, schema)
    assert payload["data"]["torsion_invariants"] == ["d^2"]
    assert payload["data"]["free_rank"] == 0


def test_verify_prop36_roundtrip(tmp_path, schema):
    out = str(tmp_path / "rows.json")
    assert cli.run([
        "verify-prop36",
        "--a-samples", "3,1/2,-1,5/2,7/3",
        "--delta-samples", "1,-2,1/3,5/2,4",
        "--json", out,
    ]) == 0
    payload = _load(out)
    jsonschema.validate(payload, schema)
    assert payload["status"] == "pass"
    assert all(r["dimension"] == r["expected_dimension"] for r in payload["data"]["rows"])


def test_verify_prop36_reports_the_samples_it_skips(tmp_path, schema, capsys):
    # the table assumes delta_i != 0: a = 2 pins the k=2 row's delta_i = a - 2
    # to zero, and a zero delta sample meets every row that leaves delta_i free
    out = str(tmp_path / "rows.json")
    assert cli.run(["verify-prop36", "--a-samples", "2", "--json", out]) == 0
    assert "(27 pass, 0 fail, 1 skipped)" in capsys.readouterr().out
    payload = _load(out)
    jsonschema.validate(payload, schema)
    skipped = [c["id"] for c in payload["report"]["checks"] if c["status"] == "skipped"]
    assert skipped == ["a-generic-k2[a=2,delta_i=0]"]
    assert "a-generic-k2" not in {r["row"] for r in payload["data"]["rows"]}
    assert cli.run(["verify-prop36", "--delta-samples", "0,1"]) == 0
    # the two generic rows with delta_i free at each of the five default a,
    # and the three a = 1 rows with delta_i free
    assert "(20 pass, 0 fail, 13 skipped)" in capsys.readouterr().out


def test_verify_prop36_verifies_a_repeated_sample_once(tmp_path, capsys):
    # 3 and 6/2 are one sample, as are 1 and 2/2: the repeated form verifies
    # the same 8 instances as the plain one, each once
    reports = []
    for i, samples in enumerate((["3,3,6/2", "1,1,2/2"], ["3", "1"])):
        out = str(tmp_path / f"rows{i}.json")
        assert cli.run(["verify-prop36", "--a-samples", samples[0], "--delta-samples", samples[1], "--json", out]) == 0
        assert "(8 pass, 0 fail, 0 skipped)" in capsys.readouterr().out
        reports.append(_load(out))
    assert reports[0] == reports[1]


def test_verify_prop36_reports_a_wrong_table_row(monkeypatch, capsys):
    # a stated solution that is not one: exit 1, a FAIL line per sampled
    # instance of the row, each with its witness
    from lieconformal import funceq
    from lieconformal.poly import D

    rows = tuple(
        dataclasses.replace(row, formula=lambda a, di: D) if row.row_id == "a-generic-k1" else row
        for row in funceq.TABLE_ROWS
    )
    monkeypatch.setattr(funceq, "TABLE_ROWS", rows)
    assert cli.run(["verify-prop36", "--a-samples", "3", "--delta-samples", "1"]) == 1
    out = capsys.readouterr().out
    assert "homogeneous solution table: fail (7 pass, 1 fail, 0 skipped)" in out
    assert "  FAIL a-generic-k1[a=3,delta_i=1]\n       solves=False dim=1 matches=False " in out


def test_homogeneous_degree_past_the_bound_is_an_argument_error(capsys):
    solve = ["solve-funceq", "--a", "3", "--delta-i", "1", "--delta-j", "0"]
    assert cli.run(solve + ["--degree-bound", "0", "--homogeneous", "1"]) == 2
    captured = capsys.readouterr()
    assert "argument --homogeneous" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert cli.run(solve + ["--degree-bound", "1", "--homogeneous", "1"]) == 0
    assert "dimension 1" in capsys.readouterr().out


def test_json_reports_are_byte_identical(tmp_path):
    spec = _write(tmp_path, "vir.lca", VIR_SPEC)
    first = str(tmp_path / "a.json")
    second = str(tmp_path / "b.json")
    assert cli.run(["check-algebra", spec, "--json", first]) == 0
    assert cli.run(["check-algebra", spec, "--json", second]) == 0
    with open(first, "rb") as fa, open(second, "rb") as fb:
        assert fa.read() == fb.read()


def test_scan_grid_argument(tmp_path, capsys):
    out = str(tmp_path / "scan.json")
    assert cli.run(["scan-a1", "--grid", "den2:1:3/2", "--horizon", "4", "--json", out]) == 0
    assert [r["a1"] for r in _load(out)["data"]["results"]] == ["1", "3/2"]
    capsys.readouterr()
    # N takes the ASCII digits only, a bound must be a fraction, and a grid
    # with no slope is refused rather than scanned as nothing
    for grid in ("den٣", "den0", "den-2", "den", "den6:2:1", "den6:1/0", "den6:١",
                 "den6:1:2:3"):
        assert cli.run(["scan-a1", "--grid", grid, "--horizon", "4"]) == 2
        err = capsys.readouterr().err
        assert "argument --grid" in err and "Traceback" not in err



def test_scan_a1_scans_a_repeated_slope_once(tmp_path, capsys):
    once, twice = str(tmp_path / "once.json"), str(tmp_path / "twice.json")
    assert cli.run(["scan-a1", "--grid", "3/2", "--horizon", "8", "--json", once]) == 0
    capsys.readouterr()
    assert cli.run(["scan-a1", "--grid", "3/2,6/4", "--horizon", "8", "--json", twice]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("a1 =")]
    assert lines == ["a1 = 3/2: rejected"]
    assert _load(twice)["data"]["results"] == _load(once)["data"]["results"]
    # the cap counts every value, repeats included
    at_cap = ",".join(["2"] * cli.MAX_GRID_SLOPES)
    assert cli._parse_grid(at_cap) == [cli._parse_grid("2")[0]]
    with pytest.raises(cli.argparse.ArgumentTypeError, match="more than"):
        cli._parse_grid(at_cap + ",2")

def test_size_arguments_are_capped(tmp_path, capsys):
    spec = _write(tmp_path, "vir.lca", VIR_SPEC)
    assert cli.run(["annih-check", spec, "--depth", str(cli.MAX_ANNIH_DEPTH)]) == 0
    assert cli.run(["weights", spec, "--module", "M", "--degree", "0"]) == 0
    solve = ["solve-funceq", "--a", "2", "--delta-i", "3", "--delta-j", "1", "--degree-bound"]
    cap = str(cli.MAX_FUNCEQ_DEGREE)
    assert cli.run(solve + [cap]) == 0
    assert cli.run(solve + [cap, "--homogeneous", cap]) == 0
    # the largest generator index a spec can define
    last = cli.MAX_GENERATORS - 1
    gens = " ".join(f"g{i}" for i in range(last + 1))
    wide = _write(tmp_path, "wide.lca", f"[algebra]\ngenerators = {gens}\n"
                  f"p_{last}_{last}_{last} = d + 2*l\n"
                  f"[module M]\nbasis = v\naction_{last} = d + 2*l\n")
    weights = ["weights", wide, "--module", "M", "--degree", "2", "--gen"]
    assert cli.run(weights + [str(last)]) == 0
    capsys.readouterr()
    commands = (
        (["annih-check", spec, "--depth"], "--depth", cli.MAX_ANNIH_DEPTH),
        (["weights", spec, "--module", "M", "--degree"], "--degree", cli.MAX_WEIGHT_DEGREE),
        (weights, "--gen", last),
        (solve, "--degree-bound", cli.MAX_FUNCEQ_DEGREE),
        (solve + ["2", "--homogeneous"], "--homogeneous", cli.MAX_FUNCEQ_DEGREE),
    )
    for argv, flag, cap in commands:
        for value in (str(cap + 1), "-1", "10" * 40, "3.5", "\u0663", ""):
            assert cli.run(argv + [value]) == 2
            err = capsys.readouterr().err
            assert f"argument {flag}" in err and "Traceback" not in err


def test_scan_arguments_are_capped(capsys):
    cap = str(cli.MAX_SCAN_HORIZON)
    assert cli.run(["scan-a1", "--grid", "2", "--horizon", cap]) == 0
    assert cli.run(["scan-a1", "--grid", "5/4", "--horizon", "2"]) == 0
    largest = f"den{cli.MAX_GRID_DENOMINATOR}"
    assert len(cli._parse_grid(largest)) <= cli.MAX_GRID_SLOPES
    capsys.readouterr()
    # a horizon below the scan's floor of 2 is an argument error as well
    for value in (str(cli.MAX_SCAN_HORIZON + 1), "1", "0", "-1", "10" * 40, "\u0663"):
        assert cli.run(["scan-a1", "--grid", "2", "--horizon", value]) == 2
        err = capsys.readouterr().err
        assert "argument --horizon" in err and "Traceback" not in err
    # N past its cap, an interval too wide to enumerate, and too many slopes
    # by either form of grid
    too_wide = f"den{cli.MAX_GRID_DENOMINATOR}:0:{10**12}"
    too_many = ",".join(["2"] * (cli.MAX_GRID_SLOPES + 1))
    for grid in (f"den{cli.MAX_GRID_DENOMINATOR + 1}", "den1:0:1000000000000", too_wide,
                 f"den{cli.MAX_GRID_DENOMINATOR}:0:2", too_many):
        assert cli.run(["scan-a1", "--grid", grid, "--horizon", "4"]) == 2
        err = capsys.readouterr().err
        assert "argument --grid" in err and "Traceback" not in err


def test_malformed_samples_and_matrices_are_argument_errors(capsys):
    at_cap = ",".join(["3"] * cli.MAX_PROP36_SAMPLES)
    assert cli.run(["verify-prop36", "--a-samples", at_cap, "--delta-samples", "1"]) == 0
    capsys.readouterr()
    too_many = ",".join(["3"] * (cli.MAX_PROP36_SAMPLES + 1))
    for flag in ("--a-samples", "--delta-samples"):
        for value in ("d", "1,,2", "", too_many):
            assert cli.run(["verify-prop36", flag, value]) == 2
            err = capsys.readouterr().err
            assert f"argument {flag}" in err and "Traceback" not in err
    for matrix, message in (("l", "entries must be univariate in d"), ("d,1;0", "ragged matrix")):
        assert cli.run(["snf", "--matrix", matrix]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_spec_generators_are_capped(tmp_path, capsys):
    block = "[algebra]\nbuiltin = block\np = 1\ntruncation = {}\n"
    cap = cli.MAX_GENERATORS
    assert cli.run(["check-algebra", _write(tmp_path, "cap.lca", block.format(cap - 1))]) == 0
    capsys.readouterr()
    for truncation in (cap, 3000):
        path = _write(tmp_path, "big.lca", block.format(truncation))
        assert cli.run(["check-algebra", path]) == 2
        message = f"{truncation + 1} generators exceed {cap} (line 4, column 14)"
        assert capsys.readouterr().err == f"error: {message}\n"


def test_annih_symbols_are_capped(tmp_path, capsys, monkeypatch):
    # the check is stubbed: at the cap it runs for seconds, and only the
    # refusal before it is under test here
    from lieconformal.reports import Report

    depths = []
    monkeypatch.setattr(cli, "AnnihAlgebra", lambda A, depth: depths.append(depth))
    monkeypatch.setattr(cli, "check_annih_lie", lambda X: Report("stub"))
    spec = "[algebra]\nbuiltin = current\nlie = abelian{}\n"
    # 4 generators at depth 32 and 12 at depth 10 make exactly the cap
    for n, depth in ((4, cli.MAX_ANNIH_DEPTH), (12, 10)):
        assert n * (depth + 1) == cli.MAX_ANNIH_SYMBOLS
        path = _write(tmp_path, "cap.lca", spec.format(n))
        assert cli.run(["annih-check", path, "--depth", str(depth)]) == 0
    assert depths == [cli.MAX_ANNIH_DEPTH, 10]
    capsys.readouterr()
    for n, depth in ((5, 32), (8, 32), (12, 11)):
        path = _write(tmp_path, "big.lca", spec.format(n))
        assert cli.run(["annih-check", path, "--depth", str(depth)]) == 2
        message = (f"annih-check at depth {depth} on {n} generators builds "
                   f"{n * (depth + 1)} symbols, more than {cli.MAX_ANNIH_SYMBOLS}")
        assert capsys.readouterr().err == f"error: {message}\n"
    assert depths == [cli.MAX_ANNIH_DEPTH, 10]


def test_check_module_size_is_capped(tmp_path, capsys, monkeypatch):
    # the check is stubbed: at the cap it runs for seconds, and only the
    # refusal before it is under test here
    from lieconformal.reports import Report

    checked = []
    monkeypatch.setattr(cli, "check_module", lambda A, M: checked.append(A.n_gens) or Report("stub"))
    def dense(n, entry):
        text = "[algebra]\nbuiltin = current\nlie = abelian{}\n[module M]\nbasis = {}\n".format(
            n, " ".join(f"v{r}" for r in range(8))
        )
        return text + "".join(
            f"action_{g} = " + " ; ".join([", ".join([entry] * 8)] * 8) + "\n" for g in range(n)
        )

    # 32^2 zero brackets, 8 vectors and degree 0: 2^5 * 8^2 * 32^2 * 8 is the cap
    at_cap = _write(tmp_path, "cap.lca", dense(32, "1/7 + i"))
    assert cli.run(["check-module", at_cap, "--module", "M"]) == 0
    assert checked == [32]
    capsys.readouterr()
    found = "[algebra]\nbuiltin = block\np = 1\ntruncation = 31\n[module M]\nbasis = v\n"
    found += "".join(f"action_{g} = (d + l + 1/7 + i)^16\n" for g in range(32))
    for spec, size in (
        # at the cap of the (D + 1)^5 weight, and weighed 3^5 now
        (dense(16, "d + l + 1/7 + i"),
         "256 generator pairs with basis size 8 and entries of degree up to 1 has size 31850496"),
        (found, "528 generator pairs with basis size 1 and entries of degree up to 16 "
                "has size 1995383808"),
    ):
        assert cli.run(["check-module", _write(tmp_path, "big.lca", spec), "--module", "M"]) == 2
        message = f"check-module on {size}, more than {cli.MAX_CHECK_WORK}"
        assert capsys.readouterr().err == f"error: {message}\n"
    assert checked == [32]


def _table(n, terms, entry):
    keys = (f"p_{x}_{y}_{(x + y + s) % n}" for x in range(n) for y in range(n) for s in range(terms))
    return "[algebra]\ngenerators = {}\n{}".format(
        " ".join(f"g{x}" for x in range(n)), "".join(f"{key} = {entry}\n" for key in keys)
    )


def test_check_algebra_size_is_capped(tmp_path, capsys, monkeypatch):
    # the check is stubbed: at the cap it runs for seconds, and only the
    # refusal before it is under test here
    from lieconformal.reports import Report

    checked = []
    monkeypatch.setattr(cli, "check_algebra", lambda A: checked.append(A.n_gens) or Report("stub"))
    # 16 generators, brackets of 8 constant terms: 2^5 * 16 * 8 * 16^2 * 16 is the cap
    at_cap = _write(tmp_path, "cap.lca", _table(16, 8, "1/7 + i"))
    assert cli.run(["check-algebra", at_cap]) == 0
    assert checked == [16]
    capsys.readouterr()
    for spec, size in (
        # at the cap of the (D + 1)^5 weight, and weighed 3^5 now
        (_table(16, 4, "d + l + 1/7 + i"),
         "256 generator pairs with bracket width 4 and entries of degree up to 1 "
         "has size 31850496"),
        (_table(16, 4, "(d + l + 1/7 + i)^2"),
         "256 generator pairs with bracket width 4 and entries of degree up to 2 "
         "has size 134217728"),
        # constant brackets weigh 2^5: the bookkeeping of a product dominates
        (_table(16, 16, "1/7 + i"),
         "256 generator pairs with bracket width 16 and entries of degree up to 0 "
         "has size 67108864"),
        # eight generators bracketing to degree-16 entries ran past 120 s before the cap
        (_table(8, 1, "(d + l + 1/7 + i)^2*d^14"),
         "64 generator pairs with bracket width 1 and entries of degree up to 16 "
         "has size 1934917632"),
    ):
        assert cli.run(["check-algebra", _write(tmp_path, "big.lca", spec)]) == 2
        message = f"check-algebra on {size}, more than {cli.MAX_CHECK_WORK}"
        assert capsys.readouterr().err == f"error: {message}\n"
    assert checked == [16]


def test_snf_matrix_is_capped(capsys):
    degree, part = cli.MAX_SNF_DEGREE, cli.MAX_SNF_PART
    assert cli.MAX_SNF_SIZE == 3
    at_cap = f"{part}*d^{degree},0,1;0,1/{part}+{part}*i,0;0,0,-{part}/{part - 1}*d"
    assert cli.run(["snf", "--matrix", at_cap]) == 0
    capsys.readouterr()
    for matrix in (
        "d,0,0,0",  # four columns
        "d;0;0;0",  # four rows
        ";".join([",".join(["1"] * 5)] * 5),
        f"d^{degree + 1}",
        f"(d + 1)^{degree}*d",
        f"{part + 1}*d",
        f"1/{part + 1}",
        f"{part + 1}*i",
        f"(d + 10)^{degree}",  # 1000 as the constant term
        "9" * 5000,
        "d + + 1",
    ):
        assert cli.run(["snf", "--matrix", matrix]) == 2
        err = capsys.readouterr().err
        assert "argument --matrix" in err and "Traceback" not in err


def test_internal_value_errors_are_not_spec_errors(monkeypatch):
    # only the spec and argument refusals map to exit 2; a ValueError from
    # inside a computation is a bug and propagates
    def broken(**kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "verify_solution_table", broken)
    with pytest.raises(ValueError, match="internal"):
        cli.run(["verify-prop36"])


def test_closed_pipe_ends_quietly_and_keeps_the_json(tmp_path):
    spec = _write(tmp_path, "vir.lca", VIR_SPEC)
    out = tmp_path / "annih.json"
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "lieconformal", "annih-check", spec, "--depth", "6",
         "--json", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader goes away before the first line
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert json.loads(out.read_text())["command"] == "annih-check"


def test_unopenable_json_path_is_an_argument_error(tmp_path, capsys):
    for path in (str(tmp_path), "report\x00.json"):
        assert cli.run(["snf", "--matrix", "d", "--json", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot open --json path:") and err.count("\n") == 1
        assert "Traceback" not in err


def test_unreadable_spec_path_is_an_argument_error(tmp_path, capsys):
    # a directory opens on some systems and fails on read on others; either
    # way it is one error line and exit 2, like a missing file
    for path in (tmp_path, tmp_path / "missing.lca"):
        assert cli.run(["check-algebra", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read spec:") and err.count("\n") == 1
        assert str(path) in err


def test_spec_that_cannot_be_read_as_text_is_an_argument_error(tmp_path, capsys):
    binary = tmp_path / "binary.lca"
    binary.write_bytes(b"\xff\xfe[algebra]\n")
    for path in (str(binary), "spec\x00.lca"):
        assert cli.run(["check-algebra", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read spec:") and err.count("\n") == 1


def test_snf_runs_the_smith_form_once(monkeypatch, capsys):
    from lieconformal import polymatrix

    calls = []
    real = polymatrix.smith_normal_form

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(polymatrix, "smith_normal_form", counting)
    monkeypatch.setattr(cli, "smith_normal_form", counting)
    assert cli.run(["snf", "--matrix", "d,1;0,d"]) == 0
    assert len(calls) == 1
    assert "free rank 0; torsion invariants: d^2" in capsys.readouterr().out
