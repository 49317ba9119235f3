"""Analysis of nonnegatively graded algebras with a Virasoro generator at grade 0.

For a graded table [L_i _l L_j] = p_{i,j}(d, l) L_{i+j} with p_{0,0} = d + 2l,
the grade-0 action on each line is either zero or affine, p_{0,i} =
d + a_i*l + b_i.  This module extracts that profile, checks the splitting
into acting / annihilated index sets, checks b_i = i*b_1, and runs the
admissibility scan for the leading coefficient a_1 at a finite horizon.

The scan builds an actual finite witness: row one of a candidate table is
taken from the exact solver (gauge-normalized, since rescaling generators
absorbs one scalar per grade), higher rows are forced by the Jacobi
identity on triples (1, i-1, j) via exact division, and a branch survives
only if the assembled table passes the full skew and Jacobi checks at the
horizon.  Degree bookkeeping alone is not enough: some rejected slopes
admit cycles that satisfy every degree-level side condition and only die
at the polynomial level.  Admissibility at a horizon is necessary, never
sufficient, for the infinite statement; results record the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    ConformalAlgebra,
    _image,
    _neg_at_neg_l_minus_m,
    check_algebra,
    jacobi_defect,
    skew_image,
)
from .funceq import FuncEqInstance, _defect_intertwiner, _solve_by_matching
from .poly import D, L, M, MultiPoly, exact_div
from .reports import Report
from .scalars import ONE, Scalar, ZERO


def _skew_condition(f: MultiPoly) -> MultiPoly:
    """Vanishes iff f is its own skew image; required of diagonal brackets."""
    return f - skew_image(f)


class GradingError(ValueError):
    pass


class NotVirasoroAtZero(GradingError):
    pass


class HypothesisViolated(GradingError):
    pass


class MalformedBracket(GradingError):
    pass


@dataclass(frozen=True)
class GradedProfile:
    a_seq: dict[int, Scalar]
    b_seq: dict[int, Scalar]
    # (i, j) -> total degree of p_{i,j} for nonzero brackets, None for zero
    # brackets.  The relation deg p_{i,j} = a_i + a_j - a_{i+j} - 1 holds for
    # the total degree, not for deg_l: p_{0,4} of block(-2) normalizes to d.
    deg_choices: dict[tuple[int, int], int | None]


def _require_graded(A: ConformalAlgebra) -> None:
    if A.grades is None:
        raise GradingError("operation needs a graded algebra")
    if any(A.grades[i] != i for i in range(A.n_gens)):
        raise GradingError("expected generator index equal to grade")


def _single_coeff(A: ConformalAlgebra, i: int, j: int) -> MultiPoly:
    """The single polynomial on the grade-(i+j) target; zero polynomial if unset."""
    entry = A.entry(i, j)
    if not entry:
        return MultiPoly.zero()
    return entry[i + j]


def split_I0_I1(A: ConformalAlgebra) -> tuple[list[int], list[int], Report]:
    """Split indices by whether grade 0 acts; verify the splitting is an algebra direct sum.

    Verified within the truncation: grade 0 annihilates the I1 part, I0 is
    closed under addition where brackets are nonzero, and the I1 part is a
    subalgebra (a bracket of annihilated lines cannot land on an acting line).
    A nonzero bracket of an acting and an annihilated line breaks the Jacobi
    identity on (0, i, j); its defect there is the witness.
    """
    _require_graded(A)
    if _single_coeff(A, 0, 0) != D + 2 * L:
        raise NotVirasoroAtZero("p_{0,0} must be exactly d + 2*l")
    report = Report("grade-zero splitting")
    n = A.n_gens
    I0 = [i for i in range(n) if not _single_coeff(A, 0, i).is_zero()]
    I1 = [i for i in range(n) if _single_coeff(A, 0, i).is_zero()]
    in_I0 = set(I0)
    for i in range(n):
        for j in range(n):
            if not A.has_entry(i, j):
                report.skip(f"split({i},{j})", "beyond truncation")
                continue
            p = _single_coeff(A, i, j)
            if p.is_zero():
                report.ok(f"split({i},{j})")
                continue
            if (i in in_I0) != (j in in_I0):
                defect = jacobi_defect(A.entry, 0, i, j).get(i + j, MultiPoly.zero())
                report.fail(
                    f"split({i},{j})",
                    f"acting and annihilated lines bracket nontrivially: {defect.render()}",
                )
            elif i in in_I0 and i + j not in in_I0:
                report.fail(f"split({i},{j})", "acting indices not closed under addition")
            elif i not in in_I0 and i + j in in_I0:
                report.fail(f"split({i},{j})", "annihilated lines do not form a subalgebra")
            else:
                report.ok(f"split({i},{j})")
    return I0, I1, report


def check_b_linear(A: ConformalAlgebra) -> Report:
    """b_i = i*b_1 for all graded lines; needs [L_1 _l L_i] nonzero in range."""
    _require_graded(A)
    report = Report("constant terms linear in grade")
    for i in range(A.n_gens):
        if i >= 1 and A.has_entry(1, i) and _single_coeff(A, 1, i).is_zero():
            raise HypothesisViolated(f"[L_1 _l L_{i}] vanishes inside the truncation")
    scale = _virasoro_scale(A)
    b1 = None
    for i in range(1, A.n_gens):
        p = _single_coeff(A, 0, i)
        if p.is_zero():
            report.skip(f"b({i})", "grade 0 does not act")
            continue
        _, b_i = _affine_parts(A, i, scale)
        if i == 1:
            b1 = b_i
        expected = Scalar(i) * (b1 if b1 is not None else ZERO)
        if b1 is None:
            report.skip(f"b({i})", "no grade-one line to compare against")
        elif b_i == expected:
            report.ok(f"b({i})")
        else:
            report.fail(f"b({i})", f"b_{i} = {b_i}, expected {i}*b_1 = {expected}")
    return report


def _virasoro_scale(A: ConformalAlgebra) -> Scalar:
    """u with p_{0,0} = u*(d + 2l); rescaling L_0 by 1/u normalizes grade 0."""
    p = _single_coeff(A, 0, 0)
    if p.is_zero():
        raise NotVirasoroAtZero("p_{0,0} vanishes")
    u = p.coeff_of("d", 1).constant_value()
    if u is None or u.is_zero() or p != (D + 2 * L) * u:
        raise NotVirasoroAtZero(f"p_{{0,0}} = {p.render()} is not a multiple of d + 2*l")
    return u


def _affine_parts(A: ConformalAlgebra, i: int, scale: Scalar) -> tuple[Scalar, Scalar]:
    """(a_i, b_i) of p_{0,i} / scale = d + a_i l + b_i, for nonzero p_{0,i}."""
    p = _single_coeff(A, 0, i) * (ONE / scale)
    if p.degrees().total not in (0, 1) or p.degree_in("l") not in (0, 1):
        raise MalformedBracket(f"normalized p_{{0,{i}}} = {p.render()} is not affine")
    if p.coeff_of("d", 1).constant_value() != ONE:
        raise MalformedBracket(f"normalized p_{{0,{i}}} = {p.render()} must have unit d coefficient")
    a = p.coeff_of("l", 1).constant_value()
    b = p.coeff_of("l", 0).coeff_of("d", 0).constant_value()
    return a, b


def profile_from_table(A: ConformalAlgebra) -> GradedProfile:
    """Extract (a_i, b_i, degree choices) and validate the two degree relations.

    The grade-0 generator is normalized first: p_{0,0} = u*(d+2l) is allowed
    and all p_{0,i} are read after dividing by u (rescaling L_0 by 1/u).
    """
    _require_graded(A)
    scale = _virasoro_scale(A)
    n = A.n_gens
    a_seq: dict[int, Scalar] = {}
    b_seq: dict[int, Scalar] = {}
    for i in range(n):
        if not A.has_entry(0, i):
            continue
        p = _single_coeff(A, 0, i)
        if p.is_zero():
            continue
        a, b = _affine_parts(A, i, scale)
        a_seq[i] = a
        b_seq[i] = b
    deg_choices: dict[tuple[int, int], int | None] = {}
    for i in range(n):
        for j in range(n):
            if not A.has_entry(i, j):
                continue
            p = _single_coeff(A, i, j)
            deg_choices[(i, j)] = p.total_degree()
    for (i, j), deg in deg_choices.items():
        if deg is None:
            continue
        if i in a_seq and j in a_seq and i + j in a_seq:
            expected = a_seq[i] + a_seq[j] - a_seq[i + j] - ONE
            if Scalar(deg) != expected:
                raise MalformedBracket(
                    f"deg p_{{{i},{j}}} = {deg} but a_{i}+a_{j}-a_{i+j}-1 = {expected}"
                )
    for j in range(n):
        deg = deg_choices.get((1, j))
        if deg is None:
            continue
        if 1 in a_seq and j in a_seq and j + 1 in a_seq:
            expected = a_seq[1] + a_seq[j] - ONE - Scalar(deg)
            if a_seq[j + 1] != expected:
                raise MalformedBracket(
                    f"a_{j+1} = {a_seq[j+1]} but a_1+a_{j}-1-deg p_{{1,{j}}} = {expected}"
                )
    return GradedProfile(a_seq, b_seq, deg_choices)


# ---------------------------------------------------------------------------
# the admissibility scan


@dataclass(frozen=True)
class ScanResult:
    a1: Scalar
    horizon: int
    admissible: bool
    witness_sequence: tuple[Scalar, ...] | None
    rejection_depth: int | None
    # the witness table the search checked, (i, j) -> p_{i,j}: what
    # assemble_witness_algebra builds from, not part of the result's value
    table: dict[tuple[int, int], MultiPoly] | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "a1": str(self.a1),
            "horizon": self.horizon,
            "admissible": self.admissible,
            "witness_sequence": (
                [str(x) for x in self.witness_sequence]
                if self.witness_sequence is not None
                else None
            ),
            "rejection_depth": self.rejection_depth,
        }


def _entry_of(table: dict[tuple[int, int], MultiPoly], unknown: tuple[int, int] | None = None):
    """The graded table as an entry(i, j) vector function; the unknown pair reads as zero."""

    def entry(i: int, j: int) -> dict[int, MultiPoly]:
        p = table[(i, j)] if (i, j) != unknown else None
        return {i + j: p} if p else {}

    return entry


_MAX_STEP_DEGREE = 3
# At a zero-target step the degree-offset row, proved for every degree in
# _Scan._candidates, leaves the one degree t = a_1 + a_prev - 1.  The
# classification table covers delta_i != 0 only and does not say whether t
# has a solution, so the cap drops exactly the steps with t > 4, unsearched.
_ZERO_TARGET_DEGREE_CAP = 4


class _Scan:
    """Depth-first search over row-one degree choices with table assembly.

    A search node is the value sequence a_1..a_h and the candidate table
    for all pairs with index sum <= h, row one p_{1,j} for j < h included.
    Extending to h+1 builds a new table with the new diagonal, accepted
    only if skew and Jacobi hold on everything the new entries make
    checkable; the parent's table is never changed.
    """

    def __init__(self, a1: Scalar, horizon: int):
        if horizon < 2:
            raise ValueError("horizon must be at least 2")
        self.a1 = a1
        self.horizon = horizon
        self.best_depth = 1
        self.unexplored_mixtures = False
        self._solver_cache: dict = {}

    def _candidates(self, a_prev: Scalar, target: Scalar, k: int, diagonal: bool) -> tuple[MultiPoly, ...]:
        """Row-one entries p_{1,h-1} from a_{h-1} = a_prev to a_h = target.

        They are the homogeneous intertwiners of degree k for (a, delta_i,
        delta_j) = (a_1, target, a_prev), where k = a_1 + a_prev - 1 - target
        (see _steps).  No other degree has a solution, by the degree-offset
        row, which holds for every k.  Take b = c_i = c_j = 0 and f =
        sum c_{p,q} d^p l^q homogeneous of degree k, and compare the terms of
        the equation linear in l.  Those free of l cancel identically: both
        sides give -m f(d, m).  At d^p l m^q the left side has
        (a - 1 - q) c_{p,q} and the right side (p + delta_i - delta_j)
        c_{p,q}, and no other unknown reaches that monomial.  So the defect's
        coefficient there is (a - delta_i + delta_j - k - 1) c_{p,q}, and
        f = 0 unless that offset vanishes; extra conditions such as
        _skew_condition only add rows.  For the scan the offset is
        a_1 + a_prev - 1 - target minus the degree, which vanishes at k only.

        A zero-target step therefore solves at the one degree
        t = k = a_1 + a_prev - 1 when t <= _ZERO_TARGET_DEGREE_CAP, and has
        no candidates past the cap.
        """
        key = (a_prev, target, k, diagonal)
        hit = self._solver_cache.get(key)
        if hit is not None:
            return hit
        result: tuple[MultiPoly, ...] = ()
        if not target.is_zero() or k <= _ZERO_TARGET_DEGREE_CAP:
            inst = FuncEqInstance(self.a1, ZERO, target, ZERO, a_prev, ZERO, k, homogeneous_degree=k)
            extra = (_skew_condition,) if diagonal else ()
            result = _solve_by_matching(inst, _defect_intertwiner, extra).basis
            if target.is_zero() and len(result) > 1:
                # several independent solutions at one degree: basis elements
                # are tried individually, mixtures are not enumerated
                self.unexplored_mixtures = True
        self._solver_cache[key] = result
        return result

    def run(self) -> ScanResult:
        if not self.a1.is_real():
            return ScanResult(self.a1, self.horizon, False, None, 1)
        found = self._dfs(self._initial_table(), [self.a1])
        if found is None:
            return ScanResult(self.a1, self.horizon, False, None, self.best_depth)
        a_seq, table = found
        return ScanResult(self.a1, self.horizon, True, tuple(a_seq), None, table)

    # -- table plumbing ----------------------------------------------------

    def _initial_table(self) -> dict[tuple[int, int], MultiPoly]:
        """Grades 0 and 1: p_{0,0} = d + 2l and p_{0,1} = d + a_1 l with its skew image.

        Nothing here needs checking: _check_new_grade compares no pair and
        tests no triple at h = 0 or 1, for the reasons its docstring gives.
        """
        p01 = D + self.a1 * L
        return {(0, 0): D + 2 * L, (0, 1): p01, (1, 0): skew_image(p01)}

    def _check_new_grade(self, table, h: int) -> bool:
        """Skew and Jacobi on everything with index sum == h that _extend did not force.

        Skew is compared on the pairs (i, h - i) with 2 <= i <= h // 2 only.
        skew_image is an involution, so (i, h - i) and (h - i, i) agree or
        disagree together.  _extend set (h, 0) and (h - 1, 1) as the skew
        images of (0, h) and (1, h - 1), and at h = 2 the solve that picked
        p_{1,1} imposed _skew_condition on it.

        Jacobi is tested on the triples x <= y <= z with x != 1 and, when
        x == 0, y >= 2: one per permutation orbit, less those the
        construction makes vanish.  Write J(x, y, z)(d, l, m) for
        jacobi_defect(entry, x, y, z).

        The orbit lemma.  Skew holds on every pair of index sum <= h once
        this grade's compared pairs pass, since the others hold by the
        construction above, earlier grades passed the same check, and a
        grade is refused on any skew failure first.  With skew on
        (x, y), J(y, x, z) = -J(x, y, z)(d, m, l) (see check_jacobi).  With
        skew on (y, z), (y, x + z) and (x + y, z), J(x, z, y) = -J(x, y, z)
        with m -> -l-m-d: [z_m y] = -[y_{-m-d} z], and sesquilinearity of
        the outer bracket in [x_l [y_{-m-d} z]] turns that d into d + l;
        the other two terms trade places the same way (D'Andrea and Kac
        1998).  Both substitutions are invertible, and the two swaps
        generate all six orderings, so the defects of a triple's orderings
        vanish together.

        The forced triples.  For h >= 3, _extend solved each (1, y, z) with
        y, z >= 1 for p_{y+1,z} in _recurse_entry: with that entry read as
        zero the defect is defect0, the entry enters J(1, y, z) only as
        -divisor * p_{y+1,z}(d, l+m), and exact_div made p_{y+1,z}(d, l+m)
        the quotient defect0 / divisor.  So J(1, y, z) is exactly 0 on
        every table _extend hands over, and a sorted triple with x == 1 is
        one of these.  For h < 3 no sorted triple has x == 1.

        The grade-0 triples.  J(0, 0, h) reads only p_{0,0} = d + 2l and
        p_{0,h} = d + a_h l: it is the identity of the rank-one Virasoro
        module d + a l, which holds for every slope a.  J(0, 1, h - 1) reads
        p_{0,1}, p_{0,h-1}, p_{0,h} and p_{1,h-1}, exactly the four lines of
        the intertwiner equation that _candidates solved for p_{1,h-1} (see
        funceq), and p_{1,h-1} is a vector of that defect's exact nullspace;
        so both vanish.  What is left, (0, y, z) with y >= 2 and the triples
        with x >= 2, is the only Jacobi content the construction does not
        force.
        """
        for i in range(2, h // 2 + 1):
            if skew_image(table[(i, h - i)]) != table[(h - i, i)]:
                return False
        entry = _entry_of(table)
        return not any(
            jacobi_defect(entry, x, y, h - x - y)
            for x in (0, *range(2, h // 3 + 1))
            for y in range(max(x, 2), (h - x) // 2 + 1)
        )

    def _recurse_entry(self, table, i: int, j: int) -> MultiPoly | None:
        """p_{i,j} forced by the Jacobi identity on (1, i-1, j); None if impossible.

        With p_{i,j} read as zero, the Jacobi defect on (1, i-1, j) is what
        p_{1,i-1}(-l-m, l) * p_{i,j}(d, l+m) must equal.  The divisor is
        taken negated from the memo of images that jacobi_defect multiplies
        by, since p_{1,i-1} is inherited unchanged by every extension, so the
        quotient is -p_{i,j}(d, l+m).
        """
        defect = jacobi_defect(_entry_of(table, unknown=(i, j)), 1, i - 1, j)
        divisor = _image(table[(1, i - 1)], _neg_at_neg_l_minus_m)
        quotient = exact_div(defect.get(i + j, MultiPoly.zero()), divisor)
        if quotient is None:
            return None
        collapsed = quotient.substitute("m", MultiPoly.zero())
        if collapsed.substitute("l", L + M) != quotient:
            return None
        return -collapsed

    def _steps(self, a_prev: Scalar) -> list[tuple[int, Scalar]]:
        """Row-one steps (k, a_{j+1}) from a_j = a_prev; each target occurs once."""
        label = self.a1 + a_prev - ONE
        steps = [(k, label - Scalar(k)) for k in range(_MAX_STEP_DEGREE + 1)]
        k = label.as_int()
        if k is not None and k > _MAX_STEP_DEGREE:
            # a drop to the unclassified zero weight from beyond the table cap
            steps.append((k, ZERO))
        return steps

    # -- the search ----------------------------------------------------------

    def _dfs(self, table, a_seq: list[Scalar]) -> tuple[list[Scalar], dict] | None:
        """Extend a_1..a_h (a_seq[0] is a_1) to the horizon: (a_seq, table), or None."""
        depth = len(a_seq)
        self.best_depth = max(self.best_depth, depth)
        if depth == self.horizon:
            return a_seq, table
        # choosing p_{1,depth}, which fixes a_{depth+1}
        for k, target in self._steps(a_seq[-1]):
            if 2 * len({*a_seq, target}) > self.horizon:
                continue
            for p1j in self._candidates(a_seq[-1], target, k, diagonal=(depth == 1)):
                extended = self._extend(table, depth + 1, target, p1j)
                if extended is not None:
                    found = self._dfs(extended, a_seq + [target])
                    if found is not None:
                        return found
        return None

    def _extend(self, table, h: int, target: Scalar, p1j: MultiPoly) -> dict | None:
        """A copy of the table with the index-sum-h diagonal added and checked, or None."""
        table = dict(table)
        table[(0, h)] = D + target * L
        table[(h, 0)] = skew_image(table[(0, h)])
        table[(1, h - 1)] = p1j
        if h - 1 != 1:
            table[(h - 1, 1)] = skew_image(p1j)
        for i in range(2, h):
            p = self._recurse_entry(table, i, h - i)
            # (h-1, 1) is already set, and the forced entry must agree with it
            if p is None or table.setdefault((i, h - i), p) != p:
                return None
        return table if self._check_new_grade(table, h) else None


def scan_a1(a1, horizon: int) -> ScanResult:
    """Admissibility of the grade-one slope a_1 at a finite horizon.

    Admissible means: some choice of row-one degrees reaches the horizon
    with at most horizon/2 distinct values a_1..a_N and an assembled
    candidate table passing skew and Jacobi everywhere in range.  This is
    a necessary condition for an infinite structure with finitely many
    distinct values and vanishing constant terms, never a construction of
    one.
    """
    if not isinstance(a1, Scalar):
        a1 = Scalar(a1)
    return _Scan(a1, horizon).run()


def default_grid(max_denominator: int = 6, lo: Fraction = Fraction(1), hi: Fraction = Fraction(2)) -> list[Scalar]:
    """All rationals with denominator <= max_denominator in [lo, hi], ascending."""
    values: set[Fraction] = set()
    for den in range(1, max_denominator + 1):
        num = den * lo.numerator // lo.denominator
        while Fraction(num, den) <= hi:
            if Fraction(num, den) >= lo:
                values.add(Fraction(num, den))
            num += 1
    return [Scalar(v) for v in sorted(values)]


def scan_grid(values, horizon: int) -> list[ScanResult]:
    return [scan_a1(v, horizon) for v in values]


def assemble_witness_algebra(result: ScanResult) -> ConformalAlgebra:
    """The witness table of an admissible scan as a checked algebra."""
    if not result.admissible or result.table is None:
        raise ValueError("no witness to assemble")
    n = result.horizon + 1
    gens = tuple(f"L{i}" for i in range(n))
    entry = _entry_of(result.table)
    full = {key: entry(*key) for key in result.table}
    algebra = ConformalAlgebra(gens, full, grades={i: i for i in range(n)}, truncation=result.horizon)
    if not check_algebra(algebra).passed:
        raise AssertionError("assembled witness fails the axiom checks")
    return algebra
