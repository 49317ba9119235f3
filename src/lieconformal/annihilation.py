"""Truncated annihilation Lie algebras and weight-space computations.

Formal symbols g_(n) for each generator g and index 0 <= n <= depth obey

    [a_(m), b_(n)] = sum_s  C(m, s) (a_(s) b)_(m+n-s),
    (d^t a)_(r)    = (-1)^t r (r-1) ... (r-t+1) a_(r-t),

which turns the polynomial bracket table into an honest Lie algebra on
finitely many symbols.  Brackets whose result needs an index beyond the
depth raise, and the consistency checker reports those as skipped.

Both sides take the bracket and its n-th products from the lambda-bracket
kernel in algebra.py: a symbol bracket reads algebra.nth_product of
algebra.bracket, built once per generator pair by AnnihAlgebra.products,
and on the module side the same nth_product of the
action, v -> n! * (coefficient of l^n in g _l v), gives the indexed
actions.  The weight spaces of the index-1 action of a chosen
Virasoro generator are computed exactly on a finite degree filtration.
Candidate weights are read from the diagonal of the filtration matrix, so
no numerical eigensolver is involved.  That is exact only when the matrix
is triangular on the window in some order of its unknowns: the action
keeps the window, and the relation "the image of one unknown reaches
another" has no cycle.  On any other window `weight_spaces` raises
NonTriangularWindow instead of dropping weights, and solves each weight
by back-substitution along that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from itertools import combinations_with_replacement
from math import comb, perm

from .algebra import ConformalAlgebra, TruncationExceeded, nth_product
from .algebra import bracket as conformal_bracket
from .linalg import nullspace, rref
from .modules import ConformalModule, apply_action
from .poly import MultiPoly, _add_scaled, _reduce_sums
from .reports import Report, _render_sum
from .scalars import ONE, Scalar, ZERO

Symbol = tuple[int, int]  # (generator index, annihilation index)
Combination = dict[Symbol, Scalar]


class NonTriangularWindow(ValueError):
    """The index-1 matrix is not triangular on the degree window, so its
    diagonal need not hold its eigenvalues."""


def _require_bound(value: int, name: str) -> None:
    # True would pass as 1 and 2.5 would fail later inside range
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, not {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative")


class AnnihAlgebra:
    def __init__(self, parent: ConformalAlgebra, depth: int):
        _require_bound(depth, "depth")
        self.parent = parent
        self.depth = depth
        self._products: dict[tuple[int, int], tuple[dict[int, MultiPoly], ...]] = {}

    def products(self, i: int, j: int) -> tuple[dict[int, MultiPoly], ...]:
        """The s-th products of generators i and j, s up to their bracket's l-degree.

        Built on first use and kept, so each generator pair reaches
        conformal_bracket once per algebra however many symbols it indexes.
        """
        key = (i, j)
        if key not in self._products:
            vec = conformal_bracket(self.parent, self.parent.gen(i), self.parent.gen(j))
            top = max((p.degree_in("l") or 0 for p in vec.values()), default=0)
            self._products[key] = tuple(nth_product(vec, s) for s in range(top + 1))
        return self._products[key]

    def symbols(self) -> list[Symbol]:
        return [
            (g, n)
            for g in range(self.parent.n_gens)
            for n in range(self.depth + 1)
        ]


def annih_bracket(X: AnnihAlgebra, left: Symbol, right: Symbol) -> Combination:
    """[g_(m), h_(n)] = sum_s C(m,s) ((s-th product))_(m+n-s), exact and finite.

    By (d^t g)_(r) = (-1)^t (r)_t g_(r-t), the d^t terms of one s-th product
    share a multiplier: one unreduced sum each, reduced once.  Only a net
    nonzero coefficient beyond the depth raises, as cancellations are common.
    """
    (i, m), (j, n) = left, right
    for idx in (m, n):
        if not (0 <= idx <= X.depth):
            raise TruncationExceeded(f"index {idx} beyond depth {X.depth}")
    sums: dict = {}
    for s, coords in enumerate(X.products(i, j)[: m + 1]):
        r = m + n - s
        groups: dict[int, Combination] = {}
        for gen, f in coords.items():
            for (t, _, _), coeff in f.terms.items():
                if t <= r:
                    groups.setdefault(t, {})[gen, r - t] = coeff
        for t, terms in groups.items():
            _add_scaled(sums, Scalar(comb(m, s) * (-1) ** t * perm(r, t)), terms)
    out = _reduce_sums(sums)
    overflow = [sym for sym in out if sym[1] > X.depth]
    if overflow:
        raise TruncationExceeded(
            f"bracket needs indices {sorted(idx for _, idx in overflow)} beyond depth {X.depth}"
        )
    return out


def _in_depth(X: AnnihAlgebra, a: Symbol, b: Symbol) -> Combination | None:
    try:
        return annih_bracket(X, a, b)
    except TruncationExceeded:
        return None


def render_combination(X: AnnihAlgebra, comb_: Combination) -> str:
    gens = X.parent.gens
    return _render_sum((coeff, f"{gens[g]}_({n})") for (g, n), coeff in sorted(comb_.items()))


def _conclude(report: Report, check_id: str, X: AnnihAlgebra, sums: dict) -> None:
    defect = _reduce_sums(sums)
    if defect:
        report.fail(check_id, render_combination(X, defect))
    else:
        report.ok(check_id)


def check_annih_lie(X: AnnihAlgebra) -> Report:
    """Antisymmetry and the Jacobi identity on all in-depth symbol pairs/triples.

    Pairs a <= b and triples a <= b <= c come from
    itertools.combinations_with_replacement over X.symbols(), which is
    ascending, so the checks are in lexicographic order of their symbols.

    Each symbol bracket is computed on its first read into one table keyed
    by ordered pair, None beyond the depth, where an identity is a skip.
    Each defect is summed unreduced (poly._add_scaled) and reduced once.
    """
    report = Report("annihilation Lie algebra")
    symbols = X.symbols()
    table: dict[tuple[Symbol, Symbol], Combination | None] = {}
    for a, b in combinations_with_replacement(symbols, 2):
        ab = table[a, b] = _in_depth(X, a, b)
        if ab is not None and a != b:
            table[b, a] = _in_depth(X, b, a)
        ba = table.get((b, a))
        if ab is None or ba is None:
            report.skip(f"antisym{a}{b}", "beyond depth")
            continue
        sums: dict = {}
        _add_scaled(sums, ONE, ab)
        _add_scaled(sums, ONE, ba)
        _conclude(report, f"antisym{a}{b}", X, sums)
    for a, b, c in combinations_with_replacement(symbols, 3):
        sums = _cyclic_sums(X, table, a, b, c)
        if sums is None:
            report.skip(f"jacobi{a}{b}{c}", "beyond depth")
        else:
            _conclude(report, f"jacobi{a}{b}{c}", X, sums)
    return report


_UNREAD = object()  # table.get default for a pair not computed yet; None is beyond the depth


def _cyclic_sums(X: AnnihAlgebra, table: dict, a: Symbol, b: Symbol, c: Symbol) -> dict | None:
    """[[a,b],c] + [[b,c],a] + [[c,a],b] unreduced, or None at the first bracket it reads beyond the depth."""
    sums: dict = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        xy = table.get((x, y), _UNREAD)
        if xy is _UNREAD:
            xy = table[x, y] = _in_depth(X, x, y)
        if xy is None:
            return None
        for sym, outer in xy.items():
            inner = table.get((sym, z), _UNREAD)
            if inner is _UNREAD:
                inner = table[sym, z] = _in_depth(X, sym, z)
            if inner is None:
                return None
            _add_scaled(sums, outer, inner)
    return sums


# ---------------------------------------------------------------------------
# indexed module actions and weight spaces


def module_action_n(M_: ConformalModule, gen: int, n: int, vec: list[MultiPoly]) -> list[MultiPoly]:
    """n! times the l^n coefficient of the action of the generator on the element."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    image = nth_product(dict(enumerate(apply_action(M_, gen, vec))), n)
    return [image.get(k, MultiPoly.zero()) for k in range(M_.rank)]


@dataclass(frozen=True)
class WeightReport:
    weight: Scalar
    vectors: tuple[tuple[MultiPoly, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)


def _refuse_unless_triangular(M_: ConformalModule, gen: int, degree_bound: int, images) -> list:
    """The unknowns, each after every unknown it reaches, else NonTriangularWindow.

    images maps each unknown (j, t), standing for d^t v_j, to its image
    {(k, s): coefficient}; the unknowns it reaches are those keys, itself
    aside.  If every reach stays in the window and the relation has no
    cycle, that order makes the matrix triangular, so its diagonal holds
    every weight.  graphlib decides the cycle, and the refusal names the
    edge that leaves the least unknown on the cycle it reports.  The reaches
    are sorted first, so no witness depends on the order of an image's terms.
    """

    def refuse(source, target, where):
        (j, t), (k, s) = source, target
        raise NonTriangularWindow(
            f"the index-1 matrix of generator {gen} is not triangular on the degree "
            f"window: d^{t} {M_.basis[j]} reaches d^{s} {M_.basis[k]}, {where}, "
            f"so its weights need not lie on the diagonal"
        )

    reach = {col: sorted(key for key in image if key != col) for col, image in images.items()}
    for col, keys in reach.items():
        for key in keys:
            if key not in reach:
                refuse(col, key, f"past the degree bound {degree_bound}")
    try:
        return list(TopologicalSorter(reach).static_order())
    except CycleError as err:
        # each unknown on the cycle reaches the one before it, the first the last
        cycle = err.args[1][1:]
        i = cycle.index(min(cycle))
        refuse(cycle[i], cycle[i - 1], "on a cycle of the window")


def weight_spaces(M_: ConformalModule, degree_bound: int, virasoro_gen: int = 0) -> list[WeightReport]:
    """Exact eigenspaces of the index-1 action on elements of d-degree <= the bound.

    The image of each window element d^t v_j must stay in the window, and
    no chain of reaches may lead from an element back to itself; then the
    matrix is triangular in some order and its diagonal holds every weight.
    Otherwise NonTriangularWindow is raised.  Weights are sorted by (real,
    imaginary) parts for deterministic output.

    Each weight alpha is solved by back-substitution, each unknown v before
    every unknown its image reaches: x_v = pending_v / (alpha - diag_v), or
    where diag_v = alpha a new parameter, with pending_v = 0 a condition;
    one nullspace call solves the conditions.  The kernel is returned in
    nullspace's form for the whole window (reduced echelon with the columns
    reversed): each vector is 1 at its free column, 0 at the others, and
    ends there.
    """
    _require_bound(degree_bound, "degree bound")
    m = M_.rank
    cols = [(j, t) for j in range(m) for t in range(degree_bound + 1)]
    images = {}
    for (j, t) in cols:
        vec = [MultiPoly.zero()] * m
        vec[j] = MultiPoly({(t, 0, 0): ONE})
        img = module_action_n(M_, virasoro_gen, 1, vec)
        images[j, t] = {(k, key[0]): coeff for k, poly in enumerate(img) for key, coeff in poly.terms.items()}
    order = _refuse_unless_triangular(M_, virasoro_gen, degree_bound, images)
    order.reverse()  # each unknown now before every unknown its image reaches
    diagonal = {col: image.get(col, ZERO) for col, image in images.items()}
    # rref takes columns in ascending order, so keys -i take the window's backwards
    reversed_column = {col: -i for i, col in enumerate(cols)}
    reports = []
    for alpha in sorted(set(diagonal.values()), key=Scalar.sort_key):
        solutions: list[dict[int, Scalar]] = []  # per parameter: {reversed column: value}
        conditions = []
        pending: dict = {}
        for col in order:
            form = _reduce_sums(pending.pop(col)) if col in pending else {}
            if diagonal[col] == alpha:
                if form:
                    conditions.append(form)
                form = {len(solutions): ONE}
                solutions.append({})
            elif form:
                shift = alpha - diagonal[col]
                form = {p: c / shift for p, c in form.items()}
            else:
                continue
            for p, c in form.items():
                solutions[p][reversed_column[col]] = c
            for key, coeff in images[col].items():
                if key != col:
                    _add_scaled(pending.setdefault(key, {}), coeff, form)
        # the first parameter brings no condition, so the kernel is never empty
        columns: list[dict[int, Scalar]] = [{} for _ in solutions]
        for row, form in enumerate(conditions):
            for p, c in form.items():
                columns[p][row] = c
        kernel = []
        for coeffs in nullspace(columns):
            sums: dict = {}
            for p, c in coeffs.items():
                _add_scaled(sums, c, solutions[p])
            kernel.append(_reduce_sums(sums))
        vectors = []
        for row in reversed(rref(kernel)[0]):
            terms: list[dict] = [{} for _ in range(m)]
            for key, coeff in row.items():
                j, t = cols[-key]
                terms[j][(t, 0, 0)] = coeff
            vectors.append(tuple(MultiPoly(x) for x in terms))
        reports.append(WeightReport(alpha, tuple(vectors)))
    return reports
