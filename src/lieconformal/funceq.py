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
parameters (proved in grading._Scan._candidates).  For a != 1 the same
proof gives every homogeneous solution as a multiple of one closed form F
(_lemma_c_solution), and at a = 1 as l times F at a = 0 in degree k - 1,
so each row's solution is derived from F (_row_solution), not written
out.  Where each row holds, its a and pinned delta_i, is not proved for
every parameter; verify_solution_table reproduces the rows by sampling
exact parameter grids.  _lemma_c_conditions reduces "F solves" to a few
polynomials in (a, delta_i) of degree <= 2, interpolated exactly from the
defect itself.  _lemma_c_rule fixes a and keeps delta_i free: the
conditions become quadratics in delta_i, and F its delta-free and
delta-linear parts.  Evaluating that rule answers a homogeneous solve
(_LemmaCRule.basis), and the scan builds one rule per degree and
evaluates it at each of its row-one targets.

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

_solve_family solves a family of instances of one degree window at once.
It sums the base and the parts of the parameters all members share once
per monomial, and each member adds only the parts of the parameters that
vary.  The members' maps form one direct sum, each member's rows keyed
by the member, and one nullspace call splits into the members' own bases
(proved in _solve_family).  A lone solve is the family of one, through
the same assembly; verify_solution_table solves each sampled instance
and its five perturbations of delta_j as one family.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import comb
from operator import attrgetter
from typing import NamedTuple

from .algebra import jacobi_defect
from .linalg import nullspace, rref
from .poly import _ZERO_KEY, D, L, M, MultiPoly, _add_scaled, _raw, _reduce_sums
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
_parameter_values = attrgetter(*_PARAMETERS)


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


def _solve_family(insts, defect, extra_conditions=()) -> list[SolutionBasis]:
    """[_solve_by_matching(inst, defect, extra_conditions) for inst in insts], one elimination.

    The members share one degree window and so one list of monomials.  A
    member's unknowns are the coefficients of its own f, so the family's
    map is the direct sum of the members' maps: member t's image of
    monomial i is column t * n + i, its entries keyed (t, row key), and one
    nullspace call solves them all.  A lone solve is the family of one,
    its rows keyed (0, row key), so every solve assembles its columns here.
    Each monomial's image sums the base and value * part of each parameter
    that every member holds at one nonzero value once; each member copies
    that unreduced sum and adds value * part of each parameter whose value
    varies across the family, where it is nonzero.

    A member's column is the column its lone solve builds, with t in place
    of 0 in each row key.  Its sum adds the same unreduced triples as the
    lone solve's, only in another order where a varying parameter comes
    before a shared one in _PARAMETERS.  The value of a sum does not
    depend on that order, and _reduce_sums takes each nonzero value to its
    one canonical Scalar and drops the zeros.  So a member's column has the
    lone solve's values under keys renamed one to one, and no order or
    name of a row key reaches a basis (linalg.nullspace).

    Each member gets exactly its lone solve's basis.  No row holds two
    members, so the direct sum's rows are the members' rows, each on its
    own block of columns, and a pivot row clears rows of its own block
    only.  The RREF is unique, so the direct sum's RREF is the blocks'
    RREFs side by side: in each block the lone solve's pivot and free
    columns, shifted by t * n, and its entries.  nullspace makes one
    vector per free column, in column order, with a 1 at its free column;
    so each vector lies in one block, and member t gets its lone solve's
    vectors, in the same order, with the same normalization.
    """
    window = {(inst.degree_bound, inst.homogeneous_degree) for inst in insts}
    if len(window) != 1:
        raise ValueError("the members of a family share one degree window")
    monomials = _monomials(*window.pop())
    values = [_parameter_values(inst) for inst in insts]
    # (part, its scale): the base, then each parameter all members hold
    # at one nonzero value; list.count compares each value with the first
    shared = [(None, ONE)]
    varying = []
    for p, held in enumerate(zip(*values)):
        if held.count(held[0]) < len(held):
            varying.append(p)
        elif not held[0].is_zero():
            shared.append((p, held[0]))
    # each member's (part, its scale) for the varying parameters
    own_parts = [[(p, row[p]) for p in varying if not row[p].is_zero()] for row in values]
    n = len(monomials)
    columns: list = [None] * (len(insts) * n)
    for i, (ed, el) in enumerate(monomials):
        sums: dict = {}
        for p, scale in shared:
            _add_scaled(sums, scale, _affine_part(defect, ed, el, p).terms)
        # a condition's rows are keyed (index, monomial), 2-tuples that never
        # equal a 3-tuple monomial
        conditions = []
        if extra_conditions:
            mono = MultiPoly({(ed, el, 0): ONE})
            for index, condition in enumerate(extra_conditions, 1):
                conditions.extend(((index, key), coeff) for key, coeff in condition(mono).terms.items())
        for t, parts in enumerate(own_parts):
            own = dict(sums) if parts else sums
            for p, scale in parts:
                _add_scaled(own, scale, _affine_part(defect, ed, el, p).terms)
            column = {(t, key): coeff for key, coeff in _reduce_sums(own).items()}
            if conditions:
                column.update(((t, key), coeff) for key, coeff in conditions)
            columns[t * n + i] = column
    bases: list = [[] for _ in insts]
    for vec in nullspace(columns):
        t = next(iter(vec)) // n  # every entry of vec lies in member t's block
        bases[t].append(_solution(monomials, vec, t * n))
    return [SolutionBasis(tuple(basis)) for basis in bases]


def _solution(monomials, vec, shift: int) -> MultiPoly:
    """The f whose coefficient on monomials[j - shift] is vec[j]."""
    return MultiPoly({(*monomials[j - shift], 0): coeff for j, coeff in vec.items()})


def _solve_by_matching(inst: FuncEqInstance, defect, extra_conditions=()) -> SolutionBasis:
    """Solutions f within inst's degrees of defect(inst, f) = 0 and each extra condition.

    A monomial's image is its base plus value * part for each parameter
    nonzero in inst, summed by poly._add_scaled and reduced once per key,
    zero sums dropped: its keys are exactly those of defect(inst,
    monomial).  An extra condition maps the monomial to a polynomial that
    must vanish too.  This is the family of one, where every parameter is
    shared.
    """
    return _solve_family((inst,), defect, extra_conditions)[0]


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
# Lemma C's closed form (proved in grading._Scan._candidates): for a != 1
# every homogeneous solution of degree k is a multiple of F below


def _lemma_c_parts(a: Scalar, k: int) -> tuple[tuple[tuple[int, int, int], Scalar, Scalar], ...]:
    """F by its monomials d^{k-s} l^s, s = 0..k: (monomial, part free of delta_i, coefficient of delta_i).

    F is the polynomial with l F = (d+l)^k (d + delta_i l) - (d + delta_j l)
    d^k, delta_j = delta_i + k + 1 - a, the degree-offset row's value.  The
    coefficient of d^{k-s} l^s in F is that of d^{k-s} l^{s+1} on the
    right: C(k, s+1) + delta_i C(k, s), less delta_j at s = 0, where it is
    a - 1.  So F is affine in (a, delta_i), and these are its two parts in
    delta_i.
    """
    rest = (((k - s, s, 0), Scalar(comb(k, s + 1)), Scalar(comb(k, s))) for s in range(1, k + 1))
    return (((k, 0, 0), a - ONE, ZERO), *rest)


def _lemma_c_solution(a: Scalar, delta_i: Scalar, k: int) -> MultiPoly:
    """F of _lemma_c_parts at delta_i."""
    return MultiPoly({key: free + delta_i * linear for key, free, linear in _lemma_c_parts(a, k)})


# the exponents (i, j) of a^i delta_i^j, numbered by their place here: the
# monomials of total degree <= 2, the only ones E(F) has
_AD_MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
_NODES = (ZERO, ONE, Scalar(2))


def _interpolate(v0: Scalar, v1: Scalar, v2: Scalar) -> tuple[Scalar, Scalar, Scalar]:
    """Coefficients of 1, x, x^2 of the quadratic taking v0, v1, v2 at x = 0, 1, 2 (Newton's differences)."""
    half_second = (v2 - v1 - v1 + v0) / Scalar(2)
    return v0, v1 - v0 - half_second, half_second


@cache
def _lemma_c_conditions(k: int) -> tuple[tuple[tuple[int, Scalar], ...], ...]:
    """Polynomials in (a, delta_i) whose common zeros are where E(F) = 0 at degree k.

    E is _defect_intertwiner at delta_j = delta_i + k + 1 - a and F is
    _lemma_c_solution.  Each condition is a tuple of (index into
    _AD_MONOMIALS, coefficient).  Each coefficient of E(F) is a polynomial
    of total degree <= 2 in (a, delta_i) (proved in
    grading._Scan._candidates), so it is interpolated exactly from the
    3 x 3 grid _NODES^2; rref reduces those coefficient rows to an
    independent basis of their span, which has the same common zeros.
    """
    grids: dict = {}  # (d, l, m) monomial -> its coefficient at each node pair
    for p, a in enumerate(_NODES):
        for q, delta_i in enumerate(_NODES):
            inst = FuncEqInstance(a, ZERO, delta_i, ZERO, delta_i + Scalar(k + 1) - a, ZERO, k)
            for key, c in _defect_intertwiner(inst, _lemma_c_solution(a, delta_i, k)).terms.items():
                grids.setdefault(key, [[ZERO] * 3 for _ in _NODES])[p][q] = c
    rows = []
    for grid in grids.values():
        # along delta_i at each a node, then along a for each power of delta_i
        by_delta = [_interpolate(*values) for values in grid]
        coeffs = {(i, j): c for j in range(3) for i, c in enumerate(_interpolate(*(col[j] for col in by_delta)))}
        if any(c for (i, j), c in coeffs.items() if i + j > 2):
            raise AssertionError("a coefficient of E(F) has total degree above 2")
        rows.append({index: coeffs[ij] for index, ij in enumerate(_AD_MONOMIALS) if coeffs[ij]})
    reduced, _ = rref(rows)
    return tuple(tuple(row.items()) for row in reduced)


class _LemmaCRule(NamedTuple):
    """Lemma C at one a != 1 and degree k, to be evaluated at each delta_i.

    conditions holds each condition of _lemma_c_conditions(k) at this a as
    its coefficients of 1, delta_i and delta_i^2, and terms holds F's parts
    in delta_i (_lemma_c_parts).
    """

    conditions: tuple[tuple[Scalar, Scalar, Scalar], ...]
    terms: tuple[tuple[tuple[int, int, int], Scalar, Scalar], ...]

    def basis(self, delta_i: Scalar) -> tuple[MultiPoly, ...]:
        """solve_homogeneous(a, delta_i, delta_i + k + 1 - a, k).basis, without a solve.

        By Lemma C the solutions are the multiples of F where every
        condition of degree k vanishes, and zero elsewhere.  F is scaled as
        nullspace scales a basis vector, to 1 at its free column: the last
        of _monomials' columns that the one kernel vector reaches, which is
        the term of F with the largest power of l, the last nonzero one here.
        """
        for c0, c1, c2 in self.conditions:
            if c0 + delta_i * (c1 + delta_i * c2):
                return ()
        f = {}
        for key, free, linear in self.terms:
            c = free + delta_i * linear if linear else free
            if c:
                f[key] = c
        inv = ONE / f[next(reversed(f))]
        return (_raw({key: c * inv for key, c in f.items()}),)


def _lemma_c_rule(a: Scalar, k: int) -> _LemmaCRule:
    """Lemma C's conditions and F of degree k at a != 1, with delta_i left free.

    A condition of _lemma_c_conditions(k) is a polynomial in (a, delta_i)
    of total degree <= 2, so at a fixed a it is a quadratic in delta_i.
    """
    powers = (ONE, a, a * a)
    conditions = []
    for condition in _lemma_c_conditions(k):
        coeffs = [ZERO, ZERO, ZERO]
        for index, c in condition:
            i, j = _AD_MONOMIALS[index]
            coeffs[j] += c * powers[i]
        conditions.append(tuple(coeffs))
    return _LemmaCRule(tuple(conditions), _lemma_c_parts(a, k))


# ---------------------------------------------------------------------------
# the classification table of nonzero homogeneous solutions (delta_i != 0)


@dataclass(frozen=True)
class TableRow:
    """One row: its degree k, the a it holds at, its pinned delta_i if any,
    and its solution up to scalar.

    delta_j is not stated: the degree-offset row gives delta_j = delta_i +
    k + 1 - a for every nonzero solution of degree k.  Neither is the
    solution: formula derives it from Lemma C (_row_solution), and the
    paper's formulas for the eight rows are the tests' oracle.
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


def _row_solution(k: int) -> Callable[[Scalar, Scalar], MultiPoly]:
    """Row k's solution at (a, delta_i), as grading._Scan._candidates proves it.

    At a != 1 every solution is a multiple of Lemma C's F
    (_lemma_c_solution).  At a = 1, k >= 1 and delta_i != 0 every solution
    is l h, with h a solution at a = 0 in degree k - 1 with the same
    delta_i and delta_j, so h is F there; at a = 1 and k = 0 the constant 1
    solves.
    """

    def formula(a: Scalar, delta_i: Scalar) -> MultiPoly:
        if a != ONE:
            return _lemma_c_solution(a, delta_i, k)
        return L * _lemma_c_solution(ZERO, delta_i, k - 1) if k else MultiPoly.one()

    return formula


def _rows() -> tuple[TableRow, ...]:
    return (
        TableRow("a-generic-k0", 0, None, None, _row_solution(0)),
        TableRow("a-generic-k1", 1, None, None, _row_solution(1)),
        TableRow("a-generic-k2", 2, None, lambda a: a - Scalar(2), _row_solution(2)),
        # The generic cubic only solves at a = 5/3, with delta_j = 5/3.
        TableRow("a-generic-k3", 3, Scalar(Fraction(5, 3)), lambda a: Scalar(Fraction(-2, 3)), _row_solution(3)),
        TableRow("a-one-k0", 0, ONE, None, _row_solution(0)),
        TableRow("a-one-k1", 1, ONE, None, _row_solution(1)),
        TableRow("a-one-k2", 2, ONE, None, _row_solution(2)),
        # The k=3 row in the a=1 regime: the solution only exists at
        # (delta_i, delta_j) = (-2, 1); coefficient matching rejects the
        # transposed pair (-1, 2) even though both satisfy the degree
        # offset s = a + delta_j - delta_i - 1 = 3.
        TableRow("a-one-k3", 3, ONE, lambda a: Scalar(-2), _row_solution(3)),
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
    reported as skipped.  The six solves of an instance differ only in
    delta_j, so they run as one _solve_family, which gives each the basis
    solve_homogeneous would.  "The stated polynomial solves" stays a
    direct evaluation of the defect, a witness apart from the solver's
    columns.
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
            # solve_homogeneous at delta_j and at each perturbation, as one family
            basis, *perturbed = _solve_family(
                [
                    FuncEqInstance(a, ZERO, di, ZERO, delta_j, ZERO, row.k, homogeneous_degree=row.k)
                    for delta_j in (dj, *(dj + eps for eps in _PERTURBATIONS))
                ],
                _defect_intertwiner,
            )
            matches = basis.dimension == 1 and _proportional(basis.basis[0], stated)
            rv = RowVerification(
                row.row_id, a, di, dj, row.k,
                defect.is_zero(), basis.dimension, matches,
                tuple(p_basis.dimension for p_basis in perturbed),
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
