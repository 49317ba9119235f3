"""The linear-solve interface: nullspace of a map given by sparse column images."""

import pytest
from hypothesis import given, strategies as st

from lieconformal.algebra import InvalidStructure, map_virasoro
from lieconformal.linalg import nullspace, rank, rref
from lieconformal.scalars import ONE, Scalar, ZERO

KEYS = range(6)


def entries():
    """Small Gaussian rationals, zero in about half the draws."""
    part = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.one_of(st.just(ZERO), st.builds(Scalar, part, part))


def columns():
    return st.lists(st.dictionaries(st.sampled_from(KEYS), entries(), max_size=len(KEYS)), max_size=5)


def _dense(cols):
    return [[col.get(key, ZERO) for col in cols] for key in KEYS]


def _image(cols, vec):
    out = {}
    for col, x in zip(cols, vec):
        for key, coeff in col.items():
            out[key] = out.get(key, ZERO) + x * coeff
    return out


@given(columns())
def test_every_basis_vector_maps_to_zero(cols):
    for vec in nullspace(cols):
        assert len(vec) == len(cols)
        assert all(v.is_zero() for v in _image(cols, vec).values())


@given(columns())
def test_dimension_is_columns_minus_rank(cols):
    basis = nullspace(cols)
    assert len(basis) == len(cols) - rank(_dense(cols))
    if basis:
        assert rank(basis) == len(basis)


@given(columns(), st.permutations(list(KEYS)), st.sampled_from(KEYS))
def test_basis_ignores_row_order_duplicates_and_zero_rows(cols, relabel, dup):
    expected = nullspace(cols)
    # the same rows under other keys, met in the reverse order
    permuted = [{relabel[key]: col[key] for key in reversed(col)} for col in cols]
    assert nullspace(permuted) == expected
    # one row repeated under a fresh key, and one more row of zeros
    padded = [{**col, **({"dup": col[dup]} if dup in col else {}), "zero": ZERO} for col in cols]
    assert nullspace(padded) == expected


def _rref_first_nonzero(rows):
    """RREF taking each pivot from the first row with a nonzero entry: the oracle."""
    mat = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(mat[0]) if mat else 0):
        pivot_row = next((rr for rr in range(r, len(mat)) if not mat[rr][c].is_zero()), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = ONE / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for rr in range(len(mat)):
            if rr != r:
                f = mat[rr][c]
                mat[rr] = [a - f * b for a, b in zip(mat[rr], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def matrices():
    return st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(entries(), min_size=n, max_size=n), max_size=7)
    )


@given(matrices(), st.randoms(use_true_random=False))
def test_rref_is_the_first_nonzero_oracle_under_row_permutations(rows, rnd):
    # the RREF is unique, so the sparsest-row pivot rule changes only the cost
    expected = _rref_first_nonzero(rows)
    assert rref(rows) == expected
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert rref(shuffled) == expected


@pytest.mark.parametrize("n", range(5))
def test_all_empty_columns_give_the_identity_basis(n):
    identity = [[ONE if i == j else ZERO for i in range(n)] for j in range(n)]
    assert nullspace([{}] * n) == identity
    assert nullspace([{"row": ZERO}] * n) == identity


def test_kernel_basis_is_normalized_by_the_free_columns():
    # x0 + x2 = 0 and x1 - 2 x2 = 0: x2 is the free unknown
    cols = [{"a": ONE}, {"b": ONE}, {"a": ONE, "b": Scalar(-2)}]
    assert nullspace(cols) == [[-ONE, Scalar(2), ONE]]


# -- the unit of the commutative algebra in map_virasoro ------------------------


def _product_table(products):
    """mult[i][j] from {(i, j): coordinates}, symmetric, zero where absent."""
    n = 2
    zero = [ZERO] * n
    return [
        [list(products.get((i, j), products.get((j, i), zero))) for j in range(n)]
        for i in range(n)
    ]


def test_unit_that_is_no_basis_vector_is_found():
    # C x C: u_0 and u_1 are orthogonal idempotents, and the unit is u_0 + u_1
    mult = _product_table({(0, 0): [ONE, ZERO], (1, 1): [ZERO, ONE]})
    A = map_virasoro(mult)
    assert A.gens == ("L0", "L1")


def test_idempotent_without_unit_is_refused():
    # u_1 u_1 = u_1 and every other product zero: nothing acts as one on u_0
    mult = _product_table({(1, 1): [ZERO, ONE]})
    with pytest.raises(InvalidStructure, match="unit"):
        map_virasoro(mult)
