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


def test_size_arguments_are_capped(tmp_path, capsys):
    spec = _write(tmp_path, "vir.lca", VIR_SPEC)
    assert cli.run(["annih-check", spec, "--depth", str(cli.MAX_ANNIH_DEPTH)]) == 0
    assert cli.run(["weights", spec, "--module", "M", "--degree", "0"]) == 0
    solve = ["solve-funceq", "--a", "2", "--delta-i", "3", "--delta-j", "1", "--degree-bound"]
    cap = str(cli.MAX_FUNCEQ_DEGREE)
    assert cli.run(solve + [cap]) == 0
    assert cli.run(solve + ["0", "--homogeneous", cap]) == 0
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
    assert cli.run(["snf", "--matrix", "d", "--json", str(tmp_path)]) == 2
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
