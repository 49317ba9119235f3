"""Matrices over the univariate polynomial ring in d, and their Smith form.

Used to split finitely presented modules over the polynomial operator ring
into a free part and torsion invariants: for a presentation matrix P (rows
= module generators, columns = relations), the diagonalization U P V = S
with unimodular U, V and a divisibility chain on the diagonal reads off
everything.  Pivoting is deterministic: the minimal-degree nonzero entry,
ties broken row-major; nonzero invariants are normalized monic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import MultiPoly, divmod_univar
from .scalars import ONE


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
    n, m = A.shape
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return MultiPoly.one()
    work = [list(r) for r in A.rows]
    # fraction-free is unnecessary at these sizes; cofactor expansion
    def det(rows):
        size = len(rows)
        if size == 1:
            return rows[0][0]
        acc = MultiPoly.zero()
        sign = 1
        for c in range(size):
            top = rows[0][c]
            if not top.is_zero():
                minor = [row[:c] + row[c + 1:] for row in rows[1:]]
                term = top * det(minor)
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
        return acc
    return det(work)


def _degree(p: MultiPoly) -> int | None:
    return p.degree_in("d")


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
        lead = p.terms[max(p.terms, key=lambda k: k[0])]
        if lead != ONE:
            inv = ONE / lead
            work[t] = [inv * x for x in work[t]]
            U[t] = [inv * x for x in U[t]]
    return SmithDecomposition(PolyMatrix(U), PolyMatrix(work), PolyMatrix(V))


def torsion_split(presentation: PolyMatrix) -> tuple[int, list[MultiPoly]]:
    """(free rank, torsion invariants) of the module presented by the matrix."""
    return smith_normal_form(presentation).torsion_split()
