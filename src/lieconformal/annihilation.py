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
NonTriangularWindow instead of dropping weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from itertools import combinations_with_replacement
from math import comb, perm

from .algebra import ConformalAlgebra, TruncationExceeded, accumulate, nth_product
from .algebra import bracket as conformal_bracket
from .linalg import nullspace
from .modules import ConformalModule, apply_action
from .poly import MultiPoly
from .reports import Report, _render_sum
from .scalars import ONE, Scalar, ZERO

Symbol = tuple[int, int]  # (generator index, annihilation index)
Combination = dict[Symbol, Scalar]


class NonTriangularWindow(ValueError):
    """The index-1 matrix is not triangular on the degree window, so its
    diagonal need not hold its eigenvalues."""


class AnnihAlgebra:
    def __init__(self, parent: ConformalAlgebra, depth: int):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
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


def _element_at_index(coords: dict[int, MultiPoly], r: int) -> Combination:
    """(f(d) g)_(r) expanded through (d^t g)_(r) = (-1)^t (r)_t g_(r-t).

    Indices beyond any depth are kept here; the caller decides whether a
    net out-of-depth coefficient survives (cancellations are common on
    diagonal brackets and must not trip the truncation check)."""
    out: Combination = {}
    for gen, f in coords.items():
        for key, coeff in f.terms.items():
            t = key[0]
            if t > r:
                continue
            accumulate(out, (gen, r - t), coeff * Scalar((-1) ** t * perm(r, t)))
    return out


def annih_bracket(X: AnnihAlgebra, left: Symbol, right: Symbol) -> Combination:
    """[g_(m), h_(n)] = sum_s C(m,s) ((s-th product))_(m+n-s), exact and finite."""
    (i, m), (j, n) = left, right
    for idx in (m, n):
        if not (0 <= idx <= X.depth):
            raise TruncationExceeded(f"index {idx} beyond depth {X.depth}")
    out: Combination = {}
    for s, coords in enumerate(X.products(i, j)[: m + 1]):
        if not coords:
            continue
        binom = Scalar(comb(m, s))
        part = _element_at_index(coords, m + n - s)
        for sym, coeff in part.items():
            accumulate(out, sym, binom * coeff)
    overflow = [sym for sym in out if sym[1] > X.depth]
    if overflow:
        raise TruncationExceeded(
            f"bracket needs indices {sorted(idx for _, idx in overflow)} beyond depth {X.depth}"
        )
    return out


def render_combination(X: AnnihAlgebra, comb_: Combination) -> str:
    gens = X.parent.gens
    return _render_sum((coeff, f"{gens[g]}_({n})") for (g, n), coeff in sorted(comb_.items()))


def check_annih_lie(X: AnnihAlgebra) -> Report:
    """Antisymmetry and the Jacobi identity on all in-depth symbol pairs/triples.

    Pairs a <= b and triples a <= b <= c come from
    itertools.combinations_with_replacement over X.symbols(), which is
    ascending, so the checks are in lexicographic order of their symbols.

    Each symbol bracket is computed at most once per call: the memo maps an
    ordered pair to its combination, or to None when the bracket is out of
    depth, and such a pair raises afresh on every use, so the identity that
    needs it is still a skip.  Memoized combinations are shared, never
    mutated.
    """
    report = Report("annihilation Lie algebra")
    memo: dict[tuple[Symbol, Symbol], Combination | None] = {}

    def bracket(a: Symbol, b: Symbol) -> Combination:
        key = (a, b)
        if key in memo:
            out = memo[key]
        else:
            try:
                out = annih_bracket(X, a, b)
            except TruncationExceeded:
                out = None
            memo[key] = out
        if out is None:
            raise TruncationExceeded(f"bracket {a}{b} beyond depth {X.depth}")
        return out

    for a, b in combinations_with_replacement(X.symbols(), 2):
        try:
            ab = bracket(a, b)
            ba = bracket(b, a)
        except TruncationExceeded:
            report.skip(f"antisym{a}{b}", "beyond depth")
            continue
        defect = dict(ab)
        for sym, coeff in ba.items():
            accumulate(defect, sym, coeff)
        if defect:
            report.fail(f"antisym{a}{b}", render_combination(X, defect))
        else:
            report.ok(f"antisym{a}{b}")
    for a, b, c in combinations_with_replacement(X.symbols(), 3):
        defect: Combination = {}
        try:
            # [[a,b],c] + [[b,c],a] + [[c,a],b]
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for sym, outer in bracket(x, y).items():
                    for key, coeff in bracket(sym, z).items():
                        accumulate(defect, key, outer * coeff)
        except TruncationExceeded:
            report.skip(f"jacobi{a}{b}{c}", "beyond depth")
            continue
        if defect:
            report.fail(f"jacobi{a}{b}{c}", render_combination(X, defect))
        else:
            report.ok(f"jacobi{a}{b}{c}")
    return report


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


def _refuse_unless_triangular(M_: ConformalModule, gen: int, degree_bound: int, images) -> None:
    """Raise NonTriangularWindow unless the window's matrix is triangular in some order.

    images maps each unknown (j, t), standing for d^t v_j, to its image
    {(k, s): coefficient}; the unknowns it reaches are those keys, itself
    aside.  When every reach stays in the window and the relation has no
    cycle, a topological order makes the matrix triangular, so its diagonal
    holds every weight.  graphlib decides the cycle, and the refusal names
    the edge that leaves the least unknown on the cycle it reports.  The
    reaches are sorted first, so neither refusal's witness depends on the
    order of an image's terms.
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
        TopologicalSorter(reach).prepare()
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
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    m = M_.rank
    cols = [(j, t) for j in range(m) for t in range(degree_bound + 1)]
    images = []
    for (j, t) in cols:
        vec = [MultiPoly.zero()] * m
        vec[j] = MultiPoly({(t, 0, 0): ONE})
        img = module_action_n(M_, virasoro_gen, 1, vec)
        images.append({(k, key[0]): coeff for k, poly in enumerate(img) for key, coeff in poly.terms.items()})
    _refuse_unless_triangular(M_, virasoro_gen, degree_bound, dict(zip(cols, images)))
    candidates = sorted({image.get(col, ZERO) for col, image in zip(cols, images)}, key=Scalar.sort_key)
    reports = []
    for alpha in candidates:
        columns = [
            {**img, cols[i]: img.get(cols[i], ZERO) - alpha}
            for i, img in enumerate(images)
        ]
        basis = nullspace(columns)
        if not basis:
            continue
        vectors = []
        for coeffs in basis:
            terms: list[dict] = [{} for _ in range(m)]
            for i, coeff in coeffs.items():
                j, t = cols[i]
                terms[j][(t, 0, 0)] = coeff
            vectors.append(tuple(MultiPoly(x) for x in terms))
        reports.append(WeightReport(alpha, tuple(vectors)))
    return reports
