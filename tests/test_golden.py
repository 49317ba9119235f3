"""Byte-exact golden outputs: catches accidental drift in the rendering
order, coefficient format, or JSON layout."""

import json
import os
from fractions import Fraction

import pytest

from lieconformal import cli
from lieconformal.grading import default_grid, scan_grid

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

VIR = """
[algebra]
generators = L
grades = 0
p_00 = d + 2*l

[module M]
basis = v
action_0 = d + 2*l
"""

# a graded three-generator table that fails: skew holds on (0, 1) while
# Jacobi fails on (0, 1, 1), skew fails on (0, 2) and (1, 1), and the
# pairs past the truncation are skipped
GRADED_FAIL = """
[algebra]
generators = L0 L1 L2
grades = 0 1 2
truncation = 2
p_00 = d + 2*l
p_01 = d + l
p_10 = l
p_02 = d + 2*l + l^2
p_20 = -d - 2*l + (l + d)^2
p_11 = d + l
"""


def _golden_bytes(name):
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


def test_check_algebra_golden(tmp_path):
    spec = tmp_path / "vir.lca"
    spec.write_text(VIR)
    out = tmp_path / "out.json"
    assert cli.run(["check-algebra", str(spec), "--json", str(out)]) == 0
    assert out.read_bytes() == _golden_bytes("check_algebra_vir.json")


def test_snf_golden(tmp_path):
    out = tmp_path / "out.json"
    assert cli.run(["snf", "--matrix", "d,1;0,d", "--json", str(out)]) == 0
    assert out.read_bytes() == _golden_bytes("snf_jordan.json")


def test_weights_golden(tmp_path):
    spec = tmp_path / "vir.lca"
    spec.write_text(VIR)
    out = tmp_path / "out.json"
    assert cli.run([
        "weights", str(spec), "--module", "M", "--degree", "3", "--json", str(out)
    ]) == 0
    assert out.read_bytes() == _golden_bytes("weights_vir.json")


def test_check_algebra_failing_golden(tmp_path):
    spec = tmp_path / "graded.lca"
    spec.write_text(GRADED_FAIL)
    out = tmp_path / "out.json"
    assert cli.run(["check-algebra", str(spec), "--json", str(out)]) == 1
    assert out.read_bytes() == _golden_bytes("check_algebra_graded_fail.json")


def test_scan_golden(tmp_path):
    out = tmp_path / "out.json"
    assert cli.run(["scan-a1", "--grid", "den6", "--horizon", "8", "--json", str(out)]) == 0
    assert out.read_bytes() == _golden_bytes("scan_den6_h8.json")


def test_scan_horizon_12_golden(tmp_path):
    # pins the rejection depths at horizon 12, where the search goes deeper
    out = tmp_path / "out.json"
    assert cli.run(["scan-a1", "--grid", "den6", "--horizon", "12", "--json", str(out)]) == 0
    assert out.read_bytes() == _golden_bytes("scan_den6_h12.json")


def test_scan_at_the_grid_and_horizon_caps_golden(tmp_path):
    # den12 on [1, 2] at horizon 32: the largest grid and horizon the CLI takes
    out = tmp_path / "out.json"
    assert cli.run(["scan-a1", "--grid", "den12", "--horizon", "32", "--json", str(out)]) == 0
    assert out.read_bytes() == _golden_bytes("scan_den12_h32.json")


def test_scan_witness_tables_golden():
    # the rendered witness table of every admitted slope of den12 over
    # [0, 3] at horizon 12: the JSON goldens above pin verdicts, depths and
    # witness sequences, and this one pins the row-one normalization too
    results = scan_grid(default_grid(12, Fraction(0), Fraction(3)), 12)
    tables = {
        str(r.a1): [f"p_{{{i},{j}}} = {p.render()}" for (i, j), p in sorted(r.table.items())]
        for r in results
        if r.admissible
    }
    text = json.dumps(tables, indent=2, sort_keys=True) + "\n"
    assert text.encode() == _golden_bytes("scan_witness_den12_h12.json")


def test_verify_prop36_golden(tmp_path):
    out = tmp_path / "out.json"
    assert cli.run(["verify-prop36", "--json", str(out)]) == 0
    assert out.read_bytes() == _golden_bytes("verify_prop36.json")


# one solve-funceq instance per solver path: nonzero constants b, c_i and
# c_j with a nonconstant solution, a homogeneous degree, and the variant
SOLVE_FUNCEQ = (
    pytest.param(
        "solve_funceq_constants.json",
        ["--a", "1", "--b", "1", "--delta-i", "2", "--c-i", "3",
         "--delta-j", "4", "--c-j", "2", "--degree-bound", "3"],
        id="constants",
    ),
    pytest.param(
        "solve_funceq_homogeneous.json",
        ["--a", "1", "--delta-i", "-1", "--delta-j", "1",
         "--degree-bound", "2", "--homogeneous", "2"],
        id="homogeneous",
    ),
    pytest.param(
        "solve_funceq_variant.json",
        ["--a", "3", "--delta-i", "2", "--delta-j", "1", "--degree-bound", "3", "--variant"],
        id="variant",
    ),
)


@pytest.mark.parametrize("name, argv", SOLVE_FUNCEQ)
def test_solve_funceq_golden(tmp_path, name, argv):
    out = tmp_path / "out.json"
    assert cli.run(["solve-funceq", *argv, "--json", str(out)]) == 0
    assert out.read_bytes() == _golden_bytes(name)
