"""Exact solver for the rank-one intertwiner functional equations.

The inhomogeneous equation relates a connecting polynomial f(d, l) between
two Virasoro-typed lines with weights (delta_j, c_j) -> (delta_i, c_i)
under an acting line with parameters (a, b):

    (-l - m + a*l + b) f(d, l+m)
        = f(d+l, m) (d + delta_i*l + c_i) - (d + m + delta_j*l + c_j) f(d, m)

It is the Jacobi identity on (L_0, g_1, g_2) of four lines with
[L_0 _l g_1] = (d + a*l + b) g_1, [L_0 _l g_2] = (d + delta_j*l + c_j) g_2,
[L_0 _l g_3] = (d + delta_i*l + c_i) g_3, [g_1 _l g_2] = f(d, l) g_3 and every
other bracket zero: its three terms are the equation's with the sign
flipped, so algebra.jacobi_defect computes the defect.

Its top-degree shadow drops the constants; homogeneous solutions of total
degree k are classified (for delta_i != 0) by an eight-row table.  Its
degree range is complete: no k >= 4 has a nonzero solution at any
parameters (proved in grading._Scan._candidates).  Its rows at k <= 3 are
not proved for every parameter; verify_solution_table reproduces them by
sampling exact parameter grids.

Everything reduces to coefficient matching: the unknowns are the
coefficients of f on the (d, l) monomials, each unknown's image is the
defect of its monomial over the (d, l, m) monomials, and the solutions are
the exact nullspace of that linear map over the scalars.  The unknown
monomials are ordered graded-lex with d > l and the nullspace basis is
normalized by the reduced row echelon form, so a basis depends on that
monomial order only, never on the order of the defect's rows.

The defect of a monomial is affine in the six line parameters
(a, b, delta_i, c_i, delta_j, c_j) jointly, so a solve does not rebuild
it: it combines base + sum_p p * part_p at its parameter values, and
_affine_part builds the base and each part from one evaluation of the
defect itself the first time a solve needs it, a part only once a solve
has that parameter nonzero.  The cache holds at most seven polynomials
per monomial of each defect up to the largest degree bound solved, and a
solve at that bound builds all of those it reads anyway.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .algebra import jacobi_defect
from .linalg import nullspace
from .poly import _ZERO_KEY, D, L, M, MultiPoly, _add_scaled, _reduce_sums
from .reports import Report
from .scalars import ONE, Scalar, ZERO


class NotASolution(ValueError):
    """degree_offset was handed a polynomial that fails its equation."""


@dataclass(frozen=True)
class FuncEqInstance:
    a: Scalar
    b: Scalar
    delta_i: Scalar
    c_i: Scalar
    delta_j: Scalar
    c_j: Scalar
    degree_bound: int
    homogeneous_degree: int | None = None

    def __post_init__(self):
        if self.degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")
        if self.homogeneous_degree is not None and self.homogeneous_degree < 0:
            raise ValueError("homogeneous degree must be nonnegative")
        if self.homogeneous_degree is not None and self.homogeneous_degree > self.degree_bound:
            raise ValueError("homogeneous degree must not exceed the degree bound")


@dataclass(frozen=True)
class SolutionBasis:
    basis: tuple[MultiPoly, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


@cache
def _monomials(degree_bound: int, homogeneous: int | None) -> tuple[tuple[int, int], ...]:
    """(d, l) exponent pairs, graded-lex with d > l, restricted as requested."""
    degrees = range(degree_bound + 1) if homogeneous is None else [homogeneous]
    return tuple((ed, total - ed) for total in degrees for ed in range(total, -1, -1))


def _line(slope: Scalar, const: Scalar) -> MultiPoly:
    """The line entry d + slope*l + const."""
    return MultiPoly({(1, 0, 0): ONE, (0, 1, 0): slope, _ZERO_KEY: const})


def _defect_intertwiner(inst: FuncEqInstance, f: MultiPoly) -> MultiPoly:
    """Defect polynomial in (d, l, m); zero iff f solves the equation.

    Minus the g_3 component of the Jacobi defect on (L_0, g_1, g_2) of the
    four-line table in the module docstring.
    """
    table = {
        (0, 1): {1: _line(inst.a, inst.b)},
        (0, 2): {2: _line(inst.delta_j, inst.c_j)},
        (0, 3): {3: _line(inst.delta_i, inst.c_i)},
        (1, 2): {3: f},
    }
    defect = jacobi_defect(lambda i, j: table.get((i, j), {}), 0, 1, 2)
    return -defect.get(3, MultiPoly.zero())


def _defect_bcsx(inst: FuncEqInstance, q: MultiPoly) -> MultiPoly:
    """Defect of the variant orientation, exactly as it prints:

        (-l - m + a*l) q(d, l+m)
            = q(d+m, l) (d + delta_i*l + c_i) - (d + m + delta_j*l + c_j) q(d, m)

    The shift is by m and the shifted factor keeps l; there is no constant
    on the left-hand side.
    """
    lhs_factor = (inst.a - ONE) * L - M
    q_lm = q.substitute("l", L + M)
    q_shift = q.substitute("d", D + M)
    q_m = q.substitute("l", M)
    left_line = _line(inst.delta_i, inst.c_i)
    right_line = D + M + inst.delta_j * L + MultiPoly.const(inst.c_j)
    return lhs_factor * q_lm - q_shift * left_line + right_line * q_m


# The FuncEqInstance fields the defects are affine in; _affine_part
# numbers its parts by their place here.
_PARAMETERS = ("a", "b", "delta_i", "c_i", "delta_j", "c_j")


@cache
def _affine_part(defect, ed: int, el: int, p: int | None) -> MultiPoly:
    """Part p of defect(inst, d^ed l^el) = base + sum_p p * part_p; base when p is None.

    This is exact: each term of the Jacobi defect is one line entry times
    a shift of f, and each line entry is affine in its own two parameters,
    so the defect is affine in all six jointly.  base is the defect at the
    origin and part_p the defect at p's unit point minus base; both come
    from defect itself, so the equations stay written in one place.
    """
    point = [ONE if q == p else ZERO for q in range(len(_PARAMETERS))]
    image = defect(FuncEqInstance(*point, 0), MultiPoly({(ed, el, 0): ONE}))
    return image if p is None else image - _affine_part(defect, ed, el, None)


def _solve_by_matching(inst: FuncEqInstance, defect, extra_conditions=()) -> SolutionBasis:
    """Solutions f within inst's degrees of defect(inst, f) = 0 and each extra condition.

    A monomial's image is its base plus value * part for each parameter
    nonzero in inst, summed by poly._add_scaled and reduced once per key,
    zero sums dropped: its keys are exactly those of defect(inst,
    monomial).  An extra condition maps the monomial to a polynomial that
    must vanish too.
    """
    monomials = _monomials(inst.degree_bound, inst.homogeneous_degree)
    # (part, its scale): the base, then each parameter nonzero in inst
    scaled_parts = [(None, ONE)] + [
        (p, value)
        for p, value in enumerate(getattr(inst, name) for name in _PARAMETERS)
        if not value.is_zero()
    ]
    columns = []
    for ed, el in monomials:
        sums: dict = {}
        for p, scale in scaled_parts:
            _add_scaled(sums, scale, _affine_part(defect, ed, el, p).terms)
        # keyed by monomial; a condition's rows by (index, monomial), 2-tuples
        # that never equal a 3-tuple monomial
        column = _reduce_sums(sums)
        if extra_conditions:
            mono = MultiPoly({(ed, el, 0): ONE})
            for index, condition in enumerate(extra_conditions, 1):
                column.update(((index, key), coeff) for key, coeff in condition(mono).terms.items())
        columns.append(column)
    basis = [
        MultiPoly({(*monomials[i], 0): coeff for i, coeff in vec.items()})
        for vec in nullspace(columns)
    ]
    return SolutionBasis(tuple(basis))


def solve_intertwiner(inst: FuncEqInstance) -> SolutionBasis:
    """All f with total degree <= the bound solving the inhomogeneous equation."""
    return _solve_by_matching(inst, _defect_intertwiner)


def solve_homogeneous(a: Scalar, delta_i: Scalar, delta_j: Scalar, k: int) -> SolutionBasis:
    """Homogeneous solutions of total degree exactly k of the top-degree equation."""
    return solve_intertwiner(FuncEqInstance(a, ZERO, delta_i, ZERO, delta_j, ZERO, k, homogeneous_degree=k))


def bcsx_variant_solver(inst: FuncEqInstance) -> SolutionBasis:
    """Solutions of the variant orientation (shift by m, l on the shifted factor)."""
    return _solve_by_matching(inst, _defect_bcsx)


@dataclass(frozen=True)
class DegreeOffsetResult:
    deg_lambda: int
    expected: Scalar

    @property
    def passed(self) -> bool:
        return Scalar(self.deg_lambda) == self.expected


def degree_offset(f: MultiPoly, a: Scalar, delta_i: Scalar, delta_j: Scalar) -> DegreeOffsetResult:
    """Check deg_l f = a + delta_j - delta_i - 1 for a nonzero homogeneous solution."""
    if f.is_zero():
        raise NotASolution("the zero polynomial carries no degree data")
    inst = FuncEqInstance(a, ZERO, delta_i, ZERO, delta_j, ZERO, 0)
    if not _defect_intertwiner(inst, f).is_zero():
        raise NotASolution("polynomial does not solve the homogeneous equation")
    return DegreeOffsetResult(f.degree_in("l") or 0, a + delta_j - delta_i - ONE)


# ---------------------------------------------------------------------------
# the classification table of nonzero homogeneous solutions (delta_i != 0)


@dataclass(frozen=True)
class TableRow:
    """One row: its degree k, the a it holds at, its pinned delta_i if any,
    and its solution up to scalar.

    delta_j is not stated: the degree-offset row gives delta_j = delta_i +
    k + 1 - a for every nonzero solution of degree k.
    """

    row_id: str
    k: int
    a: Scalar | None  # the one a the row holds at; None for every a != 1
    delta_i_of: Callable[[Scalar], Scalar] | None  # a -> the pinned delta_i; None when free
    formula: Callable[[Scalar, Scalar], MultiPoly]  # (a, delta_i) -> the solution

    def instantiate(self, a: Scalar, delta_i: Scalar) -> tuple[Scalar, Scalar, MultiPoly]:
        """(delta_i, delta_j, solution) at a; a pinned row ignores the delta_i given."""
        if self.delta_i_of is not None:
            delta_i = self.delta_i_of(a)
        return delta_i, delta_i + Scalar(self.k + 1) - a, self.formula(a, delta_i)

    def instances(self, a_samples, delta_samples):
        """(a, delta_i, delta_j, solution) at each sampled point the row holds at."""
        pinned = self.delta_i_of is not None
        for a in [self.a] if self.a is not None else [a for a in a_samples if a != ONE]:
            for delta_i in [self.delta_i_of(a)] if pinned else delta_samples:
                yield (a, *self.instantiate(a, delta_i))


def _rows() -> tuple[TableRow, ...]:
    one = ONE

    def r_const(a, di):
        return MultiPoly.one()

    def r_a1(a, di):
        return D - (di / (one - a)) * L

    def r_a2(a, di):
        return D * D - ((one + 2 * di) / (one - a)) * D * L - (di / (one - a)) * L * L

    def r_a3(a, di):
        return (
            D**3
            + Scalar(Fraction(3, 2)) * D * D * L
            - Scalar(Fraction(3, 2)) * D * L * L
            - L**3
        )

    def r_b1(a, di):
        return L

    def r_b2(a, di):
        return L * (D - di * L)

    def r_b3(a, di):
        return L * (D * D + 3 * D * L + 2 * L * L)

    return (
        TableRow("a-generic-k0", 0, None, None, r_const),
        TableRow("a-generic-k1", 1, None, None, r_a1),
        TableRow("a-generic-k2", 2, None, lambda a: a - Scalar(2), r_a2),
        # The generic cubic only solves at a = 5/3, with delta_j = 5/3.
        TableRow("a-generic-k3", 3, Scalar(Fraction(5, 3)), lambda a: Scalar(Fraction(-2, 3)), r_a3),
        TableRow("a-one-k0", 0, one, None, r_const),
        TableRow("a-one-k1", 1, one, None, r_b1),
        TableRow("a-one-k2", 2, one, None, r_b2),
        # The k=3 row in the a=1 regime: the solution only exists at
        # (delta_i, delta_j) = (-2, 1); coefficient matching rejects the
        # transposed pair (-1, 2) even though both satisfy the degree
        # offset s = a + delta_j - delta_i - 1 = 3.
        TableRow("a-one-k3", 3, one, lambda a: Scalar(-2), r_b3),
    )


TABLE_ROWS = _rows()


def _proportional(p: MultiPoly, q: MultiPoly) -> bool:
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    if set(p.terms) != set(q.terms):
        return False
    key = next(iter(p.terms))
    ratio = q.terms[key] / p.terms[key]
    return all(q.terms[k] == c * ratio for k, c in p.terms.items())


@dataclass(frozen=True)
class RowVerification:
    row_id: str
    a: Scalar
    delta_i: Scalar
    delta_j: Scalar
    k: int
    stated_solves: bool
    dimension: int
    matches_table: bool
    perturbed_dimensions: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return (
            self.stated_solves
            and self.dimension == 1
            and self.matches_table
            and all(dim == 0 for dim in self.perturbed_dimensions)
        )


_DEFAULT_A_SAMPLES = (Scalar(3), Scalar(Fraction(1, 2)), Scalar(-1), Scalar(Fraction(5, 2)), Scalar(2, 1))
_DEFAULT_DELTA_SAMPLES = (
    Scalar(1),
    Scalar(-2),
    Scalar(Fraction(1, 3)),
    Scalar(Fraction(5, 2)),
    Scalar(Fraction(-3, 4), 1),
)
_PERTURBATIONS = (
    Scalar(1),
    Scalar(-1),
    Scalar(Fraction(1, 2)),
    Scalar(2),
    Scalar(Fraction(-3, 7)),
)


@dataclass
class TableVerification:
    report: Report
    rows: list[RowVerification] = field(default_factory=list)


def verify_solution_table(
    a_samples: tuple[Scalar, ...] = _DEFAULT_A_SAMPLES,
    delta_samples: tuple[Scalar, ...] = _DEFAULT_DELTA_SAMPLES,
) -> TableVerification:
    """Reproduce the eight-row table on exact sample grids.

    For every row and sample: the stated polynomial solves, the solver
    finds a one-dimensional space at the stated degree matching it, and
    constraint-violating perturbations of delta_j give dimension zero.
    An instance with delta_i = 0, outside the table's hypothesis, is
    reported as skipped.
    """
    report = Report("homogeneous solution table")
    result = TableVerification(report)
    for row in TABLE_ROWS:
        for a, di, dj, stated in row.instances(a_samples, delta_samples):
            check_id = f"{row.row_id}[a={a},delta_i={di}]"
            if di.is_zero():
                report.skip(check_id, "the table assumes delta_i != 0")
                continue
            defect = _defect_intertwiner(
                FuncEqInstance(a, ZERO, di, ZERO, dj, ZERO, row.k), stated
            )
            basis = solve_homogeneous(a, di, dj, row.k)
            matches = basis.dimension == 1 and _proportional(basis.basis[0], stated)
            perturbed = []
            for eps in _PERTURBATIONS:
                p_basis = solve_homogeneous(a, di, dj + eps, row.k)
                perturbed.append(p_basis.dimension)
            rv = RowVerification(
                row.row_id, a, di, dj, row.k,
                defect.is_zero(), basis.dimension, matches, tuple(perturbed),
            )
            result.rows.append(rv)
            if rv.passed:
                report.ok(check_id)
            else:
                report.fail(
                    check_id,
                    f"solves={rv.stated_solves} dim={rv.dimension} "
                    f"matches={rv.matches_table} perturbed={rv.perturbed_dimensions}",
                )
    return result
