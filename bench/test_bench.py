"""Self-tests of the benchmark.  Run with `python3 -m pytest -q bench`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import ref  # noqa: E402

TIME_METRICS = (".s", "bytes_per_s", "relative_speed")


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", ["scan", "axioms", "linear", "gaussian"])
def test_traced_counts_repeat_for_one_seed(workload):
    counts = []
    for _ in range(2):
        proc = _run(workload, 11, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, proc.stderr
        counts.append({
            name: m["value"] for name, m in result["metrics"].items()
            if not name.endswith(TIME_METRICS)
        })
    assert counts[0] == counts[1]
    assert counts[0]["trace.jobs"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    proc = _run("axioms", 3, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 100
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_without_library_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("axioms", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_structural_skip_counts():
    # checked against check_jacobi(block(1, 8)) when the benchmark was written
    assert ref.graded_skips(8, 9)[1] == 564
    assert ref.graded_skips(None, 4) == (0, 0, 0)
    # [L_(m), L_(n)] = (m - n) L_(m+n-1) needs index m+n-1 unless m = n
    antisym, _ = ref.annih_skips(ref.virasoro_entries(), 1, 3)
    assert antisym == sum(1 for m in range(4) for n in range(m, 4) if m != n and m + n - 1 > 3)


def test_solution_table_row_count_on_default_samples():
    a = [ref.G(3), ref.G(Fraction(1, 2)), ref.G(-1), ref.G(Fraction(5, 2)), ref.G(2, 1)]
    delta = [ref.G(1), ref.G(-2), ref.G(Fraction(1, 3)), ref.G(Fraction(5, 2)), ref.G(Fraction(-3, 4), 1)]
    assert ref.solution_table_rows(a, delta) == 72


def test_reference_polynomials():
    b = ref.G(2)
    assert ref.binomial_power(b, 2) == {0: ref.G(4), 1: ref.G(4), 2: ref.ONE}
    assert ref.u_divides({1: ref.ONE, 0: b}, ref.binomial_power(b, 3))
    assert not ref.u_divides({1: ref.ONE}, ref.binomial_power(b, 3))
    assert ref.det([[{0: ref.G(2)}, {}], [{1: ref.ONE}, {0: ref.G(3)}]]) == {0: ref.G(6)}
