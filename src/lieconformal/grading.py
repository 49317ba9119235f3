"""Analysis of nonnegatively graded algebras with a Virasoro generator at grade 0.

For a graded table [L_i _l L_j] = p_{i,j}(d, l) L_{i+j} with p_{0,0} = d + 2l,
the grade-0 action on each line is either zero or affine, p_{0,i} =
d + a_i*l + b_i.  This module extracts that profile, checks the splitting
into acting / annihilated index sets, checks b_i = i*b_1, and runs the
admissibility scan for the leading coefficient a_1 at a finite horizon.

The scan builds an actual finite witness.  Row one of a candidate table
is the intertwiner F of Lemma C's closed form where a few fixed
quadratics in (a_1, a_{j+1}) vanish, read from one rule per degree that
fixes a_1 (funceq._lemma_c_rule), and the exact solver's answer at
a_1 = 1; both are gauge-normalized as the solver's nullspace is, since
rescaling generators absorbs one scalar per grade.  Higher rows are forced
by the Jacobi identity on triples (1, i-1, j), j >= 2: the entry is the
one polynomial that the defect's lowest slice in l allows, found by
dividing by a single term in m, and the identity itself accepts or
refuses it, its last product added into the defect's unreduced sums
(_Scan._recurse_entry).  The row-one search is
complete: _Scan._candidates proves that no step of degree above 3 has a
solution, for every target, and that each step's solutions span at most
one line.  A branch survives only if every forced entry exists and
J(1, h-2, 1) vanishes with p_{h-1,1} the skew image of p_{1,h-1}; then
the table satisfies skew and Jacobi everywhere up to the horizon:
_Scan._extend proves that the construction forces both.  Degree
bookkeeping alone is not enough: some rejected slopes admit cycles that
satisfy every degree-level side condition and only die at the polynomial
level, where no entry satisfies a forcing identity.  Admissibility at a
horizon is necessary, never sufficient, for the infinite statement;
results record the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor

from .algebra import (
    ConformalAlgebra,
    _at_l_plus_m,
    _image,
    _jacobi_sums,
    _neg_at_neg_l_minus_m,
    check_algebra,
    jacobi_defect,
    skew_image,
)
from .funceq import TABLE_ROWS, FuncEqInstance, _defect_intertwiner, _lemma_c_rule, _solve_by_matching
from .poly import D, L, MultiPoly, _add_products, _raw, _reduce_sums, exact_div
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
    if p.total_degree() not in (0, 1) or p.degree_in("l") not in (0, 1):
        raise MalformedBracket(f"normalized p_{{0,{i}}} = {p.render()} is not affine")
    if p.coeff_of("d", 1).constant_value() != ONE:
        raise MalformedBracket(f"normalized p_{{0,{i}}} = {p.render()} must have unit d coefficient")
    a = p.coeff_of("l", 1).constant_value()
    b = p.coeff_of("l", 0).coeff_of("d", 0).constant_value()
    return a, b


def profile_from_table(A: ConformalAlgebra) -> GradedProfile:
    """Extract (a_i, b_i, degree choices) and validate the degree relation.

    The relation deg p_{i,j} = a_i + a_j - a_{i+j} - 1 includes, at i = 1,
    the row-one step a_{j+1} = a_1 + a_j - 1 - deg p_{1,j}.  The grade-0
    generator is normalized first: p_{0,0} = u*(d+2l) is allowed and all
    p_{0,i} are read after dividing by u (rescaling L_0 by 1/u).
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


# Row-one steps try the degrees of the classification table: no degree past
# its largest k has a solution at any parameters, zero target included, by
# the proof in _Scan._candidates.
_MAX_STEP_DEGREE = max(row.k for row in TABLE_ROWS)


class _Scan:
    """Depth-first search over row-one degree choices with table assembly.

    A search node is the value sequence a_1..a_h and the candidate table
    for all pairs with index sum <= h, row one p_{1,j} for j < h included.
    Extending to h+1 builds a new table with the new diagonal, accepted
    only if every forced entry exists and J(1, h-1, 1) holds with the
    skew image of row one; skew and Jacobi then hold on the new grade by
    construction (see _extend).  The parent's table is never changed.
    """

    def __init__(self, a1: Scalar, horizon: int):
        if horizon < 2:
            raise ValueError("horizon must be at least 2")
        self.a1 = a1
        self.horizon = horizon
        self.best_depth = 1
        self._solver_cache: dict = {}
        self._rules: dict = {}  # k -> funceq._lemma_c_rule(a1, k), for a1 != 1
        self._row_zero: dict = {}  # target -> (p_{0,h}, p_{h,0})
        # a_1 - 1 - k for each step degree k (see _steps)
        self._offsets = [(k, a1 - ONE - Scalar(k)) for k in range(_MAX_STEP_DEGREE + 1)]

    def _candidates(self, target: Scalar, k: int, diagonal: bool) -> tuple[MultiPoly, ...]:
        """Row-one entries p_{1,h-1} of degree k from a_{h-1} to a_h = target.

        They are the homogeneous intertwiners of degree k for (a, delta_i,
        delta_j) = (a_1, target, a_{h-1}), where k = a_1 + a_{h-1} - 1 - target
        (see _steps), so the step fixes a_{h-1} = target + k + 1 - a_1, the
        offset row's delta_j below.  No other degree has a solution, by the
        degree-offset row, which holds for every k.  Take b = c_i = c_j = 0 and f =
        sum c_{p,q} d^p l^q homogeneous of degree k, and compare the terms of
        the equation linear in l.  Those free of l cancel identically: both
        sides give -m f(d, m).  At d^p l m^q the left side has
        (a - 1 - q) c_{p,q} and the right side (p + delta_i - delta_j)
        c_{p,q}, and no other unknown reaches that monomial.  So the defect's
        coefficient there is (a - delta_i + delta_j - k - 1) c_{p,q}, and
        f = 0 unless that offset vanishes; extra conditions such as
        _skew_condition only add rows.  For the scan the offset is
        a_1 + a_{h-1} - 1 - target minus the degree, which vanishes at k only.

        No degree k >= 4 has a nonzero solution at any (a, delta_i) in C^2,
        so _steps tries k <= _MAX_STEP_DEGREE = 3 only, for a zero target
        too.  Let delta_j = delta_i + k + 1 - a, the offset row's value, and
        write the defect (funceq._defect_intertwiner) as

            E(f) = ((a-1)l - m) f(d, l+m) - f(d+l, m) (d + delta_i l)
                   + (d + m + delta_j l) f(d, m),

        with c the coefficient of d^k in f and C(n, s) a binomial.

        Lemma C (m = 0).  E(f)(d, l, 0) = (a-1) l f(d, l) - c l F(d, l),
        where l F = (d+l)^k (d + delta_i l) - (d + delta_j l) d^k.  So for
        a != 1, f = c F / (a-1): the space has dimension <= 1, and it is
        zero unless E(F) = 0.

        Case a != 1, delta_i != 0.  F(0, l) = delta_i l^k and
        m F(l, m) = (l+m)^k (l + delta_i m) - (l + delta_j m) l^k.  Put d = 0
        in E(F): for 0 < s < k, the coefficient of l^{k+1-s} m^s is
        delta_i [(a-1) C(k, s) - C(k, s-1) - C(k, s+1) - delta_i C(k, s)]
        = delta_i C(k, s) [(a - 1 - delta_i) - phi(s)], with
        phi(s) = s/(k+1-s) + (k-s)/(s+1); delta_j reaches only s = 0, k and
        k + 1.  Both s = 1 and s = 2 vanish only if phi(1) = phi(2), and
        phi(1) - phi(2) = (k-3)(k+1)(k+2) / (6k(k-1)), which is not zero
        for k >= 4.

        Case a != 1, delta_i = 0 (a zero target).  Now d divides F, and
        F = d l^{k-1} mod d^2, while F(l, m) = sum_{j=1..k} C(k, j)
        l^{k+1-j} m^{j-1} - delta_j l^k.  For 0 < s < k - 1, the coefficient
        of d l^{k-s} m^s in E(F) is (a-1) C(k-1, s) - C(k-1, s-1)
        - C(k, s+1), which the third term does not reach.  Its roots in a at
        s = 1 and s = 2 are 1 + 1/(k-1) + k/2 and 1 + 2/(k-2) + k/3, and
        they differ by k(k-4)(k+1) / (6(k-2)(k-1)), which is not zero for
        k >= 5.  At k = 4 both coefficients are 3a - 10, while the one of
        d^2 l^2 m is 2(4a - 15): 8(a-1) - 4 from the first term and -18
        from the second.  They have no common root.

        Case a = 1.  At m = 0, E(f) = -c l F, whose coefficients of l^{k+1}
        and d^{k-1} l^2 are -delta_i c and -(C(k, 2) + k delta_i) c.  For
        k >= 2 they force c = 0, so f = l h, and E(l h) = m E0(h), where E0
        is the equation at a = 0 in degree k - 1 with the same delta_i and
        delta_j; that delta_j is that degree's offset.  If k - 1 >= 4, the
        cases above give h = 0.  At k - 1 = 3 and delta_i != 0, the d = 0
        slice needs -1 - delta_i = phi(1) = 4/3, so delta_i = -7/3, where
        E0(F) = 10/3 d l^2 m; at delta_i = 0 the s = 1 coefficient is
        2(a-1) - 4, which needs a = 3, not 0.

        Consequence 1: the step bound.  No step of degree past 3 has a
        candidate, whatever its target, so the scan drops no step unsearched.

        Consequence 2: no mixtures.  Every space solved here has dimension
        <= 1: by Lemma C at a != 1; at a = 1 and k >= 2 because f = l h
        with h in a space at a = 0; and trivially at k = 0.  At a = k = 1
        the coefficient -delta_i c of l^2 forces c = 0 unless delta_i = 0,
        which leaves (a, delta_i, delta_j, k) = (1, 0, 1, 1), with basis d
        and l.  The scan reaches it only at a_1 = a_{h-1} = 1.  With a_1 = 1
        every target is a_{h-1} - k, so targets never rise, and a_2 = 1
        needs a constant p_{1,1}, whose skew image is its negative, so
        _skew_condition kills it.  So a_{h-1} = 1 only at depth 1, where
        _skew_condition leaves d/2 + l alone.  Each step thus has at most
        one candidate, up to the scalar that rescaling L_h absorbs, and the
        search tries them all.

        The computation.  At a_1 != 1 nothing is solved.  F is not zero,
        since its d^k coefficient is a - 1, so by Lemma C the space is the
        line of F where E(F) = 0 and zero elsewhere; on the diagonal,
        _skew_condition keeps that line or cuts it to zero.  Whether E(F) =
        0 is read off fixed polynomials in (a, delta_i), one set per k,
        which funceq._lemma_c_conditions interpolates once.  That is exact:
        E(f) is linear in f, and for fixed f affine in (a, delta_i,
        delta_j), each of the three in its own term; F is affine in (a,
        delta_i) (funceq._lemma_c_parts), and so is delta_j.  So each term
        of E(F) is an affine factor times an affine part of F, and each
        coefficient of E(F) is a polynomial of total degree <= 2 in (a,
        delta_i), so of degree <= 2 in each; such a polynomial is fixed by
        its values on a 3 x 3 product grid.  Row reduction keeps the span
        of those coefficients, so their basis vanishes exactly where they
        all do: on delta_i (delta_i - a + 2) = 0 at k = 2, and at (5/3,
        -2/3) and (3, 0) at k = 3; k = 0 and 1 have no condition, and at
        k = 4 to 6 the span holds the constant 1, as the proof above
        requires.  a = a_1 is fixed for the whole scan, so the first step
        of degree k builds funceq._lemma_c_rule(a_1, k) once: each
        condition becomes a quadratic in delta_i, and F its parts free of
        and linear in delta_i.  Every target of degree k evaluates that
        rule (funceq._LemmaCRule.basis), the same evaluation that
        funceq._lemma_c_basis makes.  F is scaled as nullspace scales its
        one kernel vector, so the candidates are the solver's, coefficient
        for coefficient.

        At a_1 = 1, Lemma C divides by a - 1 = 0 and (1, 0, 1, 1) has a
        two-dimensional space, so those steps go to the exact solver,
        funceq._solve_by_matching, with _skew_condition as an extra
        condition on the diagonal, and delta_j = target + k.  Each step's
        answer is cached per scan, keyed by (target, k, diagonal), which fix
        a_{h-1}.
        """
        key = (target, k, diagonal)
        hit = self._solver_cache.get(key)
        if hit is None:
            if self.a1 == ONE:
                delta_j = target + Scalar(k)
                inst = FuncEqInstance(self.a1, ZERO, target, ZERO, delta_j, ZERO, k, homogeneous_degree=k)
                extra = (_skew_condition,) if diagonal else ()
                hit = _solve_by_matching(inst, _defect_intertwiner, extra).basis
            else:
                rule = self._rules.get(k)
                if rule is None:
                    rule = self._rules[k] = _lemma_c_rule(self.a1, k)
                hit = rule.basis(target)
                if diagonal and hit and _skew_condition(hit[0]):
                    hit = ()
            self._solver_cache[key] = hit
        return hit

    def run(self) -> ScanResult:
        # A non-real a_1 is rejected without searching.  The search rejects
        # it too (Im a_j = j Im a_1, so the values a_1..a_h are distinct and
        # the bound of horizon/2 distinct values prunes), but its table
        # entries carry the slope's Gaussian parts: with 600-digit parts one
        # slope takes about 10 s at horizon 32 on a 2-vCPU VM.  The depth 1
        # reported here is not a depth the search reaches.
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

        Skew and Jacobi hold here, the base of the induction in _extend:
        J(0, 0, 0) and J(0, 0, 1) are the identities of the Virasoro
        algebra and of its module d + a_1 l, which hold for every slope.
        """
        p01 = D + self.a1 * L
        return {(0, 0): D + 2 * L, (0, 1): p01, (1, 0): skew_image(p01)}

    def _recurse_entry(self, table, i: int, j: int) -> MultiPoly | None:
        """p_{i,j} forced by the Jacobi identity on (1, i-1, j); None if impossible.

        With p_{i,j} read as zero, let E(d, l, m) be the Jacobi defect on
        (1, i-1, j).  For i >= 2 no other term of that identity reads the
        pair (i, j), so the identity holds exactly when P = p_{i,j} gives

            R(l, m) P(d, l+m) + E(d, l, m) = 0,    R = -p_{1,i-1}(-l-m, l),    (*)

        where R is the image that jacobi_defect multiplies by, read from
        the same memo.

        The slice.  Let r be the least power of l in p_{1,i-1}.  A term
        c d^a l^b of p_{1,i-1} gives c (-l-m)^a l^b, whose lowest power of
        l is l^b, with coefficient c (-m)^a.  Distinct a give distinct
        powers of m, so R = l^r (g(m) + l S(l, m)) with g = -sum_a c_{a,r}
        (-m)^a not zero, and R has no d.  On the scan's entries, which are
        homogeneous of some degree k, g is the one term -c (-m)^{k-r}, and
        exact_div takes its one-pass path.

        Uniqueness.  P(d, l+m) at l = 0 is P(d, m), so the coefficient of
        l^r in (*) reads g(m) P(d, m) + E_r(d, m) = 0, where E_r is the
        coefficient of l^r in E.  Q(i)[d, l, m] has no zero divisors, so a
        P satisfying (*) is -E_r / g with m renamed l.  If g does not divide
        E_r, no P exists; otherwise that quotient is the only candidate,
        and it is the entry exactly when (*) holds for it.

        The same entry as a long division.  The scan used to divide E by R
        over d, l and m, and return -X(d, l, 0) when the quotient X equals
        X(d, l, 0) with l -> l+m.  That accepts exactly when some P
        satisfies (*), with X = -P(d, l+m), and returns that P.  Such a P is
        unique, so both return the same entry, or both None.

        The computation.  E comes from algebra._jacobi_sums as its
        unreduced sums.  Only the l^r slice is reduced, to divide: E_r over
        -g, both with m renamed l, is P itself.  R P(d, l+m) is then added
        into the same sums with poly._add_products, and (*) holds exactly
        when every sum is zero, which each unreduced triple shows without a
        gcd.  So E is summed once, and only its slice is reduced; every
        product of E is still formed before the slice is tested.
        P(d, l+m) is the memo's image that every later jacobi_defect reading
        p_{i,j} as an outer entry multiplies by.
        """
        sums = _jacobi_sums(_entry_of(table, unknown=(i, j)), 1, i - 1, j).get(i + j, {})
        divisor = _image(table[(1, i - 1)], _neg_at_neg_l_minus_m)
        r = min(e_l for _, e_l, _ in divisor.terms)
        low = {(e_d, e_m, 0): v for (e_d, e_l, e_m), v in sums.items() if e_l == r}
        neg_g = {(e_d, e_m, 0): -c for (e_d, e_l, e_m), c in divisor.terms.items() if e_l == r}
        p = exact_div(_raw(_reduce_sums(low)), _raw(neg_g))
        if p is None:
            return None
        _add_products(sums, divisor.terms, _image(p, _at_l_plus_m).terms)
        return None if any(n or m for n, m, _ in sums.values()) else p

    def _steps(self, a_prev: Scalar) -> list[tuple[int, Scalar]]:
        """Row-one steps (k, a_{j+1}) from a_j = a_prev; each target occurs once.

        The step of degree k goes to a_1 + a_prev - 1 - k, a_prev plus the
        offset a_1 - 1 - k that __init__ fixes once per scan.  No degree
        past _MAX_STEP_DEGREE has a solution, whatever the target (see
        _candidates), so these steps are the whole search.
        """
        return [(k, a_prev + offset) for k, offset in self._offsets]

    # -- the search ----------------------------------------------------------

    def _dfs(self, table, a_seq: list[Scalar]) -> tuple[list[Scalar], dict] | None:
        """Extend a_1..a_h (a_seq[0] is a_1) to the horizon: (a_seq, table), or None."""
        depth = len(a_seq)
        self.best_depth = max(self.best_depth, depth)
        if depth == self.horizon:
            return a_seq, table
        # choosing p_{1,depth}, which fixes a_{depth+1}
        seen = set(a_seq)
        for k, target in self._steps(a_seq[-1]):
            if 2 * (len(seen) + (target not in seen)) > self.horizon:
                continue
            for p1j in self._candidates(target, k, diagonal=(depth == 1)):
                extended = self._extend(table, depth + 1, target, p1j)
                if extended is not None:
                    found = self._dfs(extended, a_seq + [target])
                    if found is not None:
                        return found
        return None

    def _extend(self, table, h: int, target: Scalar, p1j: MultiPoly) -> dict | None:
        """A copy of the table with the index-sum-h diagonal added, or None if it cannot be forced.

        The two skew images are read through algebra._image, so a slope's
        later branches and grades, which meet the same p_{0,h} and p_{1,h-1}
        again, compute each once.  The row-zero pair d + target l and its
        skew image is built once per target and scan, and every grade that
        reaches the target shares it.

        One identity is checked, and the construction forces skew and
        Jacobi on grade h.  Write S(i, j) for algebra._skew_defect and
        J(x, y, z)(d, l, m) for jacobi_defect(entry, x, y, z); both vanish
        below grade h (by _initial_table, then by induction).  The
        construction sets S(0, h) = S(1, h-1) = 0 (skew images, or
        _skew_condition at h = 2).  J(1, y, z) = 0 for y >= 1 is forced for
        z >= 2 (_recurse_entry found the one p_{y+1,z} that satisfies it)
        and checked for z = 1, with p_{h-1,1} the skew image of p_{1,h-1};
        forcing p_{h-1,1} and comparing would accept the same grades, as
        the identity reads it once, linearly (_recurse_entry).  J(0, 0, h)
        is the identity of the Virasoro module d + a_h l, which holds for
        every slope, and J(0, 1, h-1) is the intertwiner equation whose
        exact nullspace p_{1,h-1} lies in (see funceq).  Each p_{1,j} is a nonzero
        nullspace vector, and so is its skew image p_{j,1}; Q(i)[d, l, m]
        has no zero divisors and the substitutions below are invertible, so
        such an entry times a defect vanishes only with the defect.

        Lemma A (skew; stated in algebra, above _swapped_first, where a
        graded table's supports are the index sums y+z, x+z and x+y).  At
        x = 1 and y, z >= 1 with y + z = h - 1, its left side and S(y, z)
        vanish, so p_{1,y}(-l-m, l) S(y+1, z)(d, l+m) =
        -p_{1,z}(d+m, l) S(y, z+1)(d, m), and y = 1, ..., h-3 carry
        S(1, h-1) = 0 to every pair of index sum h.  With skew there, the
        six orderings of a triple vanish together through the two
        transpositions stated with it.  So every ordering of (1, y, z),
        (0, 0, h) and (0, 1, h-1) vanishes.

        Lemma B (Jacobi).  The Jacobiator of a skew bracket is a cocycle,
        since [X, [X, X]] = 0 (De Sole and Kac 2009).  On lines a, b, c, e,
        with a third parameter n and the sum over the cyclic shifts of
        (a, l), (b, m), (c, n),

            J(a, b, c)(-l-m-n, l, m) p_{a+b+c,e}(d, l+m+n)
              + sum [ p_{b,c}(-m-n, m) J(a, b+c, e)(d, l, m+n)
                      + p_{a,b+c+e}(d, l) J(b, c, e)(d+l, m, n)
                      - p_{a,e}(d+m+n, l) J(b, c, a+e)(d, m, n) ] = 0.

        At a = 1 and (b, c, e) = (x, y, z) with x + y + z = h - 1, each
        defect lies below grade h or has a slot equal to 1, except those of
        the raised triples J(y, x+1, z), J(x, y+1, z) and J(x, y, z+1), each
        times a row-one entry: where two of them vanish, so does the third.  At
        x = 0, y = 1, ..., h-3 give J(0, y+1, h-1-y) = 0; then a triple with
        smallest slot s >= 2 follows at x = s - 1, by induction on s.  So
        every ordered triple of index sum h vanishes.
        """
        row_zero = self._row_zero.get(target)
        if row_zero is None:
            p0h = D + target * L
            row_zero = self._row_zero[target] = (p0h, _image(p0h, skew_image))
        table = dict(table)
        table[(0, h)], table[(h, 0)] = row_zero
        table[(1, h - 1)] = p1j
        if h == 2:
            return table
        table[(h - 1, 1)] = _image(p1j, skew_image)
        for i in range(2, h - 1):
            if (p := self._recurse_entry(table, i, h - i)) is None:
                return None
            table[(i, h - i)] = p
        return None if jacobi_defect(_entry_of(table), 1, h - 2, 1) else table


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
    values = {
        Fraction(num, den)
        for den in range(1, max_denominator + 1)
        for num in range(ceil(lo * den), floor(hi * den) + 1)
    }
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
