"""Closed-loop benchmark of the lieconformal library.

One client, one process, no threads: the runner sends the next seeded job
only after the previous one has returned its verdict.  Each verdict is
checked against a known answer outside the timed call; a job whose verdict
differs, or that raises, counts as failed, and any failure marks the run
incorrect.

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones, measured untraced for `--seconds`.  With
`--trace 1` the first round of the seeded job sequence runs with the
per-layer tracer installed, then untraced rounds run from the first one on
until `--seconds` have passed; the metrics are the per-layer ones,
and every count in them depends on the seed alone.  bench/README.md
describes the workloads, the metrics, and what each metric is predicted
to move.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("scan", "axioms", "linear", "gaussian")
SETUP_REPEATS = 5
MIN_JOBS = 100  # so that ten samples lie beyond the 90th percentile

# On a shared 2-vCPU virtual machine processor speed drifts by up to 2x
# within a minute, and every job slows with it.  A fixed reference computation is timed between
# jobs, and each time is reported as it would read on a machine where the
# reference takes REFERENCE_S.  The unscaled figures go to stderr.
REFERENCE_S = 0.0015
CALIBRATE_EVERY_S = 0.25


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


_REF_P = {(i, j, 0): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
_REF_Q = {(i, 0, j): Fraction(j - 2, i + 3) for i in range(4) for j in range(3)}


def _reference_work() -> None:
    """A sparse product of rational polynomials, the library's kind of work,
    in the benchmark's own code so that no library change can alter it."""
    for _ in range(2):
        out: dict = {}
        for (a0, a1, a2), ca in _REF_P.items():
            for (b0, b1, b2), cb in _REF_Q.items():
                key = (a0 + b0, a1 + b1, a2 + b2)
                c = ca * cb
                s = out.get(key)
                out[key] = c if s is None else s + c


def reference_time() -> float:
    times = []
    for _ in range(3):
        start = perf_counter()
        _reference_work()
        times.append(perf_counter() - start)
    return statistics.median(times)


def setup(workload: str, seed: int):
    """Import the package afresh and build the job pool, SETUP_REPEATS times.

    Returns (scaled median seconds, jobs module, rounds) of the last set-up.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "jobs" or n.split(".")[0] == "lieconformal"]:
            del sys.modules[name]
        before = reference_time()
        start = perf_counter()
        jobs = importlib.import_module("jobs")
        rounds = jobs.make_rounds(workload, seed)
        elapsed = perf_counter() - start
        times.append(elapsed * 2 * REFERENCE_S / (before + reference_time()))
    return statistics.median(times), jobs, rounds


class Loop:
    """Runs jobs one after another, timing each call and checking each verdict."""

    def __init__(self, jobs_module, rounds):
        self.jobs = jobs_module
        self.rounds = rounds
        self.memo: dict = {}
        self.attempted = 0
        self.failed = 0

    def run_one(self, job, tracer=None) -> float:
        self.attempted += 1
        if tracer is not None:
            tracer.active = True
        start = perf_counter()
        try:
            result = self.jobs.run(job)
        except Exception as exc:  # a job that raises is a wrong verdict
            self._wrong(job, f"raised {type(exc).__name__}: {exc}")
            return perf_counter() - start
        finally:
            if tracer is not None:
                tracer.active = False
        elapsed = perf_counter() - start
        try:
            self.jobs.check(job, result, self.memo)
        except Exception as exc:
            self._wrong(job, f"{type(exc).__name__}: {exc}")
        return elapsed

    def _wrong(self, job, message: str) -> None:
        self.failed += 1
        print(f"bench: {job.kind} {job.params}: {message}", file=sys.stderr)

    def cycle(self):
        while True:
            yield from self.rounds


def measure(loop: Loop, rounds, seconds: float, min_jobs: int, tracer=None):
    """(jobs, raw times, scaled times) of jobs run in whole rounds, for at
    least `seconds` of wall time and `min_jobs` jobs or until `rounds` ends.

    Whole rounds give every seed the same mix of job kinds and sizes, so the
    percentiles do not depend on where the run happened to stop.  The
    reference is timed every CALIBRATE_EVERY_S, and the jobs in between are
    scaled by the mean of the reference times on either side of them.
    """
    ran: list = []
    raw: list[float] = []
    scaled: list[float] = []
    segment: list[float] = []

    def flush(before: float) -> float:
        after = reference_time()
        raw.extend(segment)
        scaled.extend(d * 2 * REFERENCE_S / (before + after) for d in segment)
        segment.clear()
        return after

    before = reference_time()
    mark = perf_counter()
    deadline = mark + seconds
    for rnd in rounds:
        for job in rnd:
            segment.append(loop.run_one(job, tracer))
            ran.append(job)
            if perf_counter() - mark >= CALIBRATE_EVERY_S:
                before = flush(before)
                mark = perf_counter()
        if perf_counter() >= deadline and len(ran) >= min_jobs:
            break
    flush(before)
    return ran, raw, scaled


def _timings(jobs, durations: list[float]) -> tuple[float, float, float]:
    """(jobs per second, median ms, 90th percentile ms).

    Each job counts with the median time of all runs of its input, which
    removes the jitter of single timings and keeps the spread across
    inputs; the pool makes every input run several times.
    """
    by_input: dict = {}
    for job, d in zip(jobs, durations):
        by_input.setdefault((job.kind, job.params), []).append(d)
    typical = {key: statistics.median(ds) for key, ds in by_input.items()}
    times = [typical[(job.kind, job.params)] for job in jobs]
    return (
        len(times) / sum(times),
        statistics.median(times) * 1e3,
        statistics.quantiles(times, n=10)[8] * 1e3,
    )


def end_to_end(loop: Loop, seconds: float, setup_s: float) -> dict:
    ran, raw, scaled = measure(loop, loop.cycle(), seconds, MIN_JOBS)
    rate, p50, p90 = _timings(ran, scaled)
    print("bench: unscaled jobs_per_s %.4f job_p50_ms %.3f job_p90_ms %.3f over %d jobs"
          % (*_timings(ran, raw), len(raw)), file=sys.stderr)
    return {
        "jobs_per_s": (rate, "1/s"),
        "job_p50_ms": (p50, "ms"),
        "job_p90_ms": (p90, "ms"),
        "setup_s": (setup_s, "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(loop: Loop, workload: str, seconds: float) -> dict:
    import tracer as tracing

    started = perf_counter()
    first = loop.rounds[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, raw, traced = measure(loop, [first], 0, 0, tracer)
    finally:
        tracer.uninstall()
    factor = sum(traced) / sum(raw)
    missing = tracer.missing_hits(workload)
    if missing:
        loop.failed += 1
        print(f"bench: traced boundaries never hit on {workload}: {', '.join(missing)}", file=sys.stderr)
    # the untraced sequence starts with the same round, for the overhead
    _, _, untraced = measure(loop, loop.cycle(), seconds - (perf_counter() - started), len(first))

    c = tracer.counts
    s = {name: t * factor for name, t in tracer.self_s.items()}

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    values = {
        "scalars.mul.calls": c["scalars.mul.calls"],
        "scalars.addsub.calls": c["scalars.addsub.calls"],
        "scalars.div.calls": c["scalars.div.calls"],
        "scalars.new.calls": c["scalars.new.calls"],
        "scalars.mul.real_ratio": ratio("scalars.mul.real", "scalars.mul.calls"),
        "poly.mul.calls": c["poly.mul.calls"],
        "poly.mul.term_pairs": c["poly.mul.term_pairs"],
        "poly.mul.s": s.get("poly.mul", 0.0),
        "poly.substitute.calls": c["poly.substitute.calls"],
        "poly.substitute.s": s.get("poly.substitute", 0.0),
        "poly.substitute.affine_ratio": ratio("poly.substitute.affine", "poly.substitute.calls"),
        "poly.exact_div.calls": c["poly.exact_div.calls"],
        "poly.exact_div.success_ratio": ratio("poly.exact_div.success", "poly.exact_div.calls"),
        "poly.add.calls": c["poly.add.calls"],
        "poly.divmod_univar.calls": c["poly.divmod_univar.calls"],
        "linalg.rref.calls": c["linalg.rref.calls"],
        "linalg.rref.cells": c["linalg.rref.cells"],
        "linalg.rref.s": s.get("linalg.rref", 0.0),
        "linalg.nullspace.nonempty_ratio": ratio("linalg.nullspace.nonempty", "linalg.nullspace.calls"),
        "polymatrix.snf.calls": c["polymatrix.snf.calls"],
        "polymatrix.snf.s": s.get("polymatrix.snf", 0.0),
        "polymatrix.snf.coeff_bits_max": c["polymatrix.snf.coeff_bits_max"],
        "algebra.check_skew.s": s.get("algebra.check_skew", 0.0),
        "algebra.check_jacobi.s": s.get("algebra.check_jacobi", 0.0),
        "algebra.bracket.calls": c["algebra.bracket.calls"],
        "algebra.jacobi.triples": c["algebra.jacobi.triples"],
        "algebra.checks.skipped": c["algebra.checks.skipped"],
        "modules.check_module.s": s.get("modules.check_module", 0.0),
        "annihilation.check_annih_lie.s": s.get("annihilation.check_annih_lie", 0.0),
        "annihilation.checks.skipped": c["annihilation.checks.skipped"],
        "annihilation.annih_bracket.calls": c["annihilation.annih_bracket.calls"],
        "annihilation.weight_spaces.s": s.get("annihilation.weight_spaces", 0.0),
        "annihilation.weights.useful_ratio": (
            c["annihilation.weights.found"] / tracer.hits["annihilation.nullspace"]
            if tracer.hits["annihilation.nullspace"] else 0.0
        ),
        "funceq.solve.calls": c["funceq.solve.calls"],
        "funceq.solve.s": s.get("funceq.solve", 0.0),
        "funceq.solve.nonempty_ratio": ratio("funceq.solve.nonempty", "funceq.solve.calls"),
        "funceq.verify_table.s": s.get("funceq.verify_table", 0.0),
        "grading.scan_a1.s": s.get("grading.scan_a1", 0.0),
        "grading.solver_calls": tracer.hits["grading._solve_by_matching"],
        "specfile.parse_spec.s": s.get("specfile.parse_spec", 0.0),
        "specfile.bytes_per_s": (
            c["specfile.bytes"] / s["specfile.parse_spec"] if s.get("specfile.parse_spec") else 0.0
        ),
        "trace.jobs": len(first),
        "trace.relative_speed": sum(untraced[: len(first)]) / sum(traced),
    }
    return {name: (value, _unit(name)) for name, value in values.items()}


def _unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith(("_ratio", "relative_speed")):
        return "ratio"
    if name.endswith("bytes_per_s"):
        return "B/s"
    if name.endswith("coeff_bits_max"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lieconformal" / "__init__.py").is_file():
        _fail(f"library sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    setup_s, jobs_module, rounds = setup(args.workload, args.seed)
    if Path(sys.modules["lieconformal"].__file__).resolve().parent != SRC / "lieconformal":
        _fail("imported lieconformal from outside this checkout")

    loop = Loop(jobs_module, rounds)
    if args.trace:
        metrics = per_layer(loop, args.workload, args.seconds)
    else:
        metrics = end_to_end(loop, args.seconds, setup_s)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
