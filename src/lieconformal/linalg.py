"""Exact linear algebra over the Gaussian rationals.

Elimination runs on sparse rows, each a {column: nonzero coefficient}
dict, and keeps the set of rows holding each column, so a pivot visits
only the rows it clears: the cost follows the nonzero entries and their
fill-in, never the zero cells of a dense layout.  Reduced row echelon form
with leading-one normalization; the nullspace basis it induces is
deterministic (one vector per free column, with a 1 in the free position),
which the golden outputs depend on.  Each pivot is taken from the
candidate row with the fewest nonzero entries (Markowitz's sparsest-row
rule, 1957), the first on ties, so the cost of an elimination does not
hang on the order of the rows; the RREF itself is unique and does not
depend on that choice.

A linear map is handed to `nullspace` as the images of its unknowns, each a
sparse {row key: coefficient} dict, and this module alone lays them out as
rows.  The RREF depends only on the row space, so a basis depends on the
order of the unknowns (the columns) and never on the order of the row keys,
on repeated rows or on zero rows.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from .scalars import ONE, Scalar, ZERO

Row = list[Scalar]
SparseRow = dict[int, Scalar]


def rref(rows: list[SparseRow]) -> tuple[list[SparseRow], list[int]]:
    """RREF of sparse rows, which are not changed; returns (reduced rows, pivot columns).

    The reduced rows come one per input row: the pivot rows in pivot
    order, then the rows that reduced to zero, as empty dicts.
    """
    rows = [dict(row) for row in rows]
    # the rows holding each column; elimination only fills in columns of a
    # pivot row, so no column outside the input's ever gets an entry
    holders: dict[int, set[int]] = {}
    for index, row in enumerate(rows):
        for col in row:
            held = holders.get(col)
            if held is None:
                holders[col] = {index}
            else:
                held.add(index)
    is_pivot = [False] * len(rows)
    pivot_rows: list[int] = []
    pivots: list[int] = []
    for c in sorted(holders):
        held = holders[c]
        # a candidate is zero left of c, so its length counts the entries it
        # would spread into the rows it clears; the first row on ties
        best, fewest = None, 0
        for index in held:
            if not is_pivot[index]:
                n = len(rows[index])
                if best is None or n < fewest or (n == fewest and index < best):
                    best, fewest = index, n
        if best is None:
            continue
        row = rows[best]
        inv = ONE / row.pop(c)
        support = [(j, x * inv) for j, x in row.items()]
        rows[best] = dict([(c, ONE), *support])
        for index in held:
            if index == best:
                continue
            target = rows[index]
            f = -target.pop(c)
            for j, x in support:
                y = f * x
                s = target.get(j)
                if s is None:
                    target[j] = y
                    holders[j].add(index)
                else:
                    s = s + y
                    if s.is_zero():
                        del target[j]
                        holders[j].discard(index)
                    else:
                        target[j] = s
        holders[c] = {best}
        is_pivot[best] = True
        pivot_rows.append(best)
        pivots.append(c)
    rest = [row for index, row in enumerate(rows) if not is_pivot[index]]
    return [rows[index] for index in pivot_rows] + rest, pivots


def nullspace(columns: Sequence[dict[Hashable, Scalar]]) -> list[Row]:
    """Basis of the kernel of the map sending unknown i to columns[i].

    One sparse row per key, zero coefficients dropped; one basis vector
    per free column of the RREF.
    """
    ncols = len(columns)
    rows: dict[Hashable, SparseRow] = {}
    for i, col in enumerate(columns):
        for key, coeff in col.items():
            if not coeff.is_zero():
                rows.setdefault(key, {})[i] = coeff
    reduced, pivots = rref(list(rows.values()))
    pivot_set = set(pivots)
    basis: list[Row] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row, pc in zip(reduced, pivots):
            x = row.get(free)
            if x is not None:
                vec[pc] = -x
        basis.append(vec)
    return basis


def rank(rows: list[Row]) -> int:
    """Rank of dense rows."""
    return len(rref([{c: x for c, x in enumerate(row) if not x.is_zero()} for row in rows])[1])
