"""Exact linear algebra over the Gaussian rationals.

Reduced row echelon form with leading-one normalization; the nullspace
basis it induces is deterministic (one vector per free column, with a 1 in
the free position), which the golden outputs depend on.  Each pivot is
taken from the candidate row with the fewest nonzero entries, so the cost
of an elimination does not hang on the order of the rows; the RREF itself
is unique and does not depend on that choice.

A linear map is handed to `nullspace` as the images of its unknowns, each a
sparse {row key: coefficient} dict, and this module alone lays them out as a
matrix.  The RREF depends only on the row space, so a basis depends on the
order of the unknowns (the columns) and never on the order of the row keys,
on repeated rows or on zero rows.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from .scalars import ONE, Scalar, ZERO

Row = list[Scalar]


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """In-place-free RREF; returns (reduced rows, pivot column indices)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        # the sparsest candidate row, the first seen on ties: it spreads the
        # fewest entries into the rows it clears, whatever the row order
        pivot_row, fewest = None, ncols + 1
        for rr in range(r, len(mat)):
            if not mat[rr][c].is_zero():
                count = sum(not x.is_zero() for x in mat[rr][c:])
                if count < fewest:
                    pivot_row, fewest = rr, count
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        row = mat[r]
        inv = ONE / row[c]
        # only the pivot row's nonzero entries, all at or right of c, change
        # the rows it clears
        support = [(j, row[j] * inv) for j in range(c, ncols) if not row[j].is_zero()]
        for j, x in support:
            row[j] = x
        for rr in range(len(mat)):
            f = mat[rr][c]
            if rr != r and not f.is_zero():
                target = mat[rr]
                for j, x in support:
                    target[j] = target[j] - f * x
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def nullspace(columns: Sequence[dict[Hashable, Scalar]]) -> list[Row]:
    """Basis of the kernel of the map sending unknown i to columns[i].

    One row per key, in the order the keys are first seen; one basis
    vector per free column of the RREF.
    """
    ncols = len(columns)
    keys = dict.fromkeys(key for col in columns for key in col)
    reduced, pivots = rref([[col.get(key, ZERO) for col in columns] for key in keys])
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis: list[Row] = []
    for free in free_cols:
        vec = [ZERO] * ncols
        vec[free] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][free]
        basis.append(vec)
    return basis


def rank(rows: list[Row]) -> int:
    return len(rref(rows)[1])
