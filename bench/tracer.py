"""Per-layer tracing from outside the library.

The tracer replaces functions at the boundaries between the library's
modules with wrappers that count calls and, for the layers that have one,
record a span.  Every alias of a boundary function is replaced: names
bound by `from ... import` in a calling module (`funceq.nullspace`,
`grading.exact_div`, ...), package-level re-exports, and dunder aliases
such as `__rmul__ = __mul__`.  Spans are aggregated as they close, so
memory stays flat however many calls a run makes: a span's self time is
its duration minus the time its child spans cover.

Counting runs only while `active` is set, which the runner does around
the timed call of each job, never around the known-answer checks.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter


def _bits(poly) -> int:
    best = 0
    for c in poly.terms.values():
        for part in (c.re, c.im):
            best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


def _observe_scalar_mul(t, args, result):
    a, b = args
    if a.im == 0 and (not hasattr(b, "im") or b.im == 0):
        t.counts["scalars.mul.real"] += 1


def _observe_poly_mul(t, args, result):
    a, b = args
    t.counts["poly.mul.term_pairs"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _observe_substitute(t, args, result):
    if (args[2].total_degree() or 0) <= 1:
        t.counts["poly.substitute.affine"] += 1


def _observe_exact_div(t, args, result):
    if result is not None:
        t.counts["poly.exact_div.success"] += 1


def _observe_rref(t, args, result):
    rows = args[0]
    t.counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _observe_nullspace(t, args, result):
    if result:
        t.counts["linalg.nullspace.nonempty"] += 1


def _observe_snf(t, args, result):
    bits = max(_bits(p) for m in (result.U, result.D, result.V) for row in m.rows for p in row)
    t.counts["polymatrix.snf.coeff_bits_max"] = max(t.counts["polymatrix.snf.coeff_bits_max"], bits)


def _observe_skips(t, args, result):
    t.counts["algebra.checks.skipped"] += len(result.skipped)


def _observe_jacobi(t, args, result):
    t.counts["algebra.jacobi.triples"] += len(result.checks)
    _observe_skips(t, args, result)


def _observe_annih(t, args, result):
    t.counts["annihilation.checks.skipped"] += len(result.skipped)


def _observe_weights(t, args, result):
    t.counts["annihilation.weights.found"] += len(result)


def _observe_solve(t, args, result):
    if result.basis:
        t.counts["funceq.solve.nonempty"] += 1


def _observe_parse(t, args, result):
    t.counts["specfile.bytes"] += len(args[0].encode("utf-8"))


# (module, owner, attribute, metric name, span?, observer).  The owner is
# a class name or None for a module-level function.
BOUNDARIES = (
    ("scalars", "Scalar", "__mul__", "scalars.mul", False, _observe_scalar_mul),
    ("scalars", "Scalar", "__add__", "scalars.addsub", False, None),
    ("scalars", "Scalar", "__sub__", "scalars.addsub", False, None),
    ("scalars", "Scalar", "__rsub__", "scalars.addsub", False, None),
    ("scalars", "Scalar", "__truediv__", "scalars.div", False, None),
    ("scalars", "Scalar", "__rtruediv__", "scalars.div", False, None),
    ("scalars", "Scalar", "__init__", "scalars.new", False, None),
    ("poly", "MultiPoly", "__mul__", "poly.mul", True, _observe_poly_mul),
    ("poly", "MultiPoly", "__add__", "poly.add", False, None),
    ("poly", "MultiPoly", "substitute", "poly.substitute", True, _observe_substitute),
    ("poly", None, "exact_div", "poly.exact_div", False, _observe_exact_div),
    ("poly", None, "divmod_univar", "poly.divmod_univar", False, None),
    ("linalg", None, "rref", "linalg.rref", True, _observe_rref),
    ("linalg", None, "nullspace", "linalg.nullspace", False, _observe_nullspace),
    ("polymatrix", None, "smith_normal_form", "polymatrix.snf", True, _observe_snf),
    ("algebra", None, "bracket", "algebra.bracket", False, None),
    ("algebra", None, "check_skew", "algebra.check_skew", True, _observe_skips),
    ("algebra", None, "check_jacobi", "algebra.check_jacobi", True, _observe_jacobi),
    ("modules", None, "check_module", "modules.check_module", True, None),
    ("annihilation", None, "annih_bracket", "annihilation.annih_bracket", False, None),
    ("annihilation", None, "check_annih_lie", "annihilation.check_annih_lie", True, _observe_annih),
    ("annihilation", None, "weight_spaces", "annihilation.weight_spaces", True, _observe_weights),
    ("funceq", None, "_solve_by_matching", "funceq.solve", True, _observe_solve),
    ("funceq", None, "verify_solution_table", "funceq.verify_table", True, None),
    ("grading", None, "scan_a1", "grading.scan_a1", True, None),
    ("specfile", None, "parse_spec", "specfile.parse_spec", True, _observe_parse),
)

# Aliases each workload must reach, as "module.attribute" where the name is
# bound.  A missing hit means the trace no longer sees that boundary.
EXPECTED_HITS = {
    "scan": (
        "grading.scan_a1", "grading._solve_by_matching", "grading.exact_div",
        "funceq.nullspace", "linalg.rref", "poly.MultiPoly.substitute",
        "poly.MultiPoly.__mul__", "scalars.Scalar.__mul__",
    ),
    "axioms": (
        "specfile.parse_spec", "algebra.check_skew", "algebra.check_jacobi",
        "modules.check_module", "poly.MultiPoly.substitute", "poly.MultiPoly.__mul__",
        "scalars.Scalar.__mul__",
    ),
    "linear": (
        "annihilation.weight_spaces", "annihilation.nullspace", "annihilation.check_annih_lie",
        "annihilation.annih_bracket", "annihilation.conformal_bracket",
        "polymatrix.smith_normal_form", "polymatrix.divmod_univar",
        "funceq.verify_solution_table", "funceq.nullspace", "linalg.rref",
    ),
}
EXPECTED_HITS["gaussian"] = EXPECTED_HITS["axioms"] + EXPECTED_HITS["linear"]


class Tracer:
    def __init__(self):
        self.active = False
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.hits: Counter = Counter()
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installing and removing wrappers ------------------------------------

    def install(self) -> None:
        package = sys.modules["lieconformal"]
        modules = {
            name.rsplit(".", 1)[-1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("lieconformal.") and mod is not None
        }
        modules["lieconformal"] = package
        for mod_name, owner_name, attr, metric, span, observe in BOUNDARIES:
            home = modules[mod_name]
            if owner_name is not None:
                home = getattr(home, owner_name)
            target = home.__dict__[attr]
            if owner_name is not None:
                # class attribute aliases such as __rmul__ = __mul__
                places = [(home, a, f"{mod_name}.{owner_name}.{a}") for a, v in list(home.__dict__.items()) if v is target]
            else:
                places = [
                    (mod, a, f"{name}.{a}")
                    for name, mod in modules.items()
                    for a, v in list(vars(mod).items())
                    if v is target
                ]
            for place, alias, label in places:
                self._patch(place, alias, label, target, metric, span, observe)

    def _patch(self, place, alias, label, target, metric, span, observe) -> None:
        tracer = self
        calls = metric + ".calls"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return target(*args, **kwargs)
            tracer.counts[calls] += 1
            tracer.hits[label] += 1
            if not span:
                result = target(*args, **kwargs)
            else:
                frame = [perf_counter(), 0.0]
                tracer._stack.append(frame)
                try:
                    result = target(*args, **kwargs)
                finally:
                    tracer._stack.pop()
                    duration = perf_counter() - frame[0]
                    tracer.self_s[metric] += duration - frame[1]
                    if tracer._stack:
                        tracer._stack[-1][1] += duration
            if observe is not None:
                observe(tracer, args, result)
            return result

        self._patched.append((place, alias, getattr(place, alias)))
        setattr(place, alias, wrapper)

    def uninstall(self) -> None:
        for place, alias, original in reversed(self._patched):
            setattr(place, alias, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def missing_hits(self, workload: str) -> list[str]:
        return [label for label in EXPECTED_HITS[workload] if not self.hits[label]]
