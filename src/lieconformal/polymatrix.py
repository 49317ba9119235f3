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

The Smith form converts each entry once, on entry, to a dense triple
(re, im, q): integer coefficient lists of the real and imaginary parts,
lowest degree first, over one denominator q for the whole polynomial.
It is the canonical (n, m, q) of a Scalar lifted to a polynomial, so each
step computes the same exact number as MultiPoly arithmetic would, with
one gcd per result instead of one per coefficient.  Division is
pseudo-division by the divisor times the conjugate of its lead, whose
lead is then a positive integer.  On exit the entries go back to
MultiPoly, and the nonzero invariants are certified to form a divisibility
chain with poly.divmod_univar; a broken chain raises AssertionError.
The determinant is fraction-free Bareiss elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .poly import MultiPoly, _raw, divmod_univar, exact_div
from .scalars import ONE, Scalar, _reduced


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
    def diagonal(entries) -> "PolyMatrix":
        entries = [e if isinstance(e, MultiPoly) else MultiPoly.const(e) for e in entries]
        n = len(entries)
        rows = [[MultiPoly.zero() for _ in range(n)] for _ in range(n)]
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


# -- the dense kernel under smith_normal_form -----------------------------------
#
# A triple (re, im, q) is the polynomial sum (re[k] + im[k]*i) d^k / q, with
# integer lists re and im of one length and q > 0.  The top term is nonzero
# and gcd(q, *re, *im) == 1, so each polynomial has exactly one triple.  Zero
# is ([], [], 1).  The lists are never changed after they are built.

_ZERO = ([], [], 1)
_ONE = ([1], [0], 1)
_MINUS_ONE = ([-1], [0], 1)


def _canon(re: list[int], im: list[int], q: int):
    """The triple of (re + im*i) / q: trailing zero terms trimmed, one gcd divided out."""
    k = len(re)
    while k and not (re[k - 1] or im[k - 1]):
        k -= 1
    if not k:
        return _ZERO
    if k < len(re):
        re, im = re[:k], im[:k]
    if q != 1:
        g = gcd(q, *re, *im)
        if g != 1:
            re = [x // g for x in re]
            im = [y // g for y in im]
            q //= g
    return re, im, q


def _dense(p: MultiPoly):
    """The triple of a polynomial in d."""
    if p.is_zero():
        return _ZERO
    q = lcm(*(c._nmq[2] for c in p.terms.values()))
    size = p.degree_in("d") + 1
    re, im = [0] * size, [0] * size
    for (k, _, _), c in p.terms.items():
        n, m, s = c._nmq
        re[k], im[k] = n * (q // s), m * (q // s)
    # no prime divides q and every part: it would divide the parts and the
    # denominator of a coefficient whose denominator has the most factors of it
    return re, im, q


def _poly(x) -> MultiPoly:
    re, im, q = x
    return _raw({(k, 0, 0): _reduced(n, m, q) for k, (n, m) in enumerate(zip(re, im)) if n or m})


def _lead(x) -> Scalar:
    """Leading coefficient of a nonzero triple."""
    re, im, q = x
    return _reduced(re[-1], im[-1], q)


def _sub_mul(a, c, b):
    """a - c*b: a Gaussian convolution over lcm of the denominators, one gcd."""
    cr, ci, cq = c
    br, bi, bq = b
    if not cr or not br:
        return a
    ar, ai, aq = a
    pq = cq * bq
    q = aq if aq == pq else lcm(aq, pq)
    fa, fp = q // aq, q // pq
    pad = [0] * (len(cr) + len(br) - 1 - len(ar))
    re = (list(ar) if fa == 1 else [x * fa for x in ar]) + pad
    im = (list(ai) if fa == 1 else [y * fa for y in ai]) + pad
    if any(ci) or any(bi):
        for j, (x, y) in enumerate(zip(cr, ci)):
            x *= fp
            y *= fp
            for k, (u, v) in enumerate(zip(br, bi), j):
                re[k] -= x * u - y * v
                im[k] -= x * v + y * u
    else:
        for j, x in enumerate(cr):
            if x:
                x *= fp
                for k, u in enumerate(br, j):
                    re[k] -= x * u
    return _canon(re, im, q)


def _scale(x, c: Scalar):
    """x * c for a nonzero Scalar c."""
    re, im, q = x
    n, m, s = c._nmq
    return _canon([n * u - m * v for u, v in zip(re, im)], [n * v + m * u for u, v in zip(re, im)], q * s)


def _divmod(a, b):
    """(quotient, remainder) of a by a nonzero b.

    Pseudo-division by b' = u*b, where u = conj(lead)/gcd of the lead's parts
    makes the lead of b' the positive integer N = |lead|^2/gcd.  The
    remainder is scaled only when N does not divide its top term, and by no
    more than that term needs; s*a = Q*b' + R then holds in Gaussian
    integers, and a = (Q*u*q_b)/(q_a*s) * b + R/(q_a*s).
    """
    ar, ai, aq = a
    br, bi, bq = b
    db = len(br) - 1
    shift = len(ar) - 1 - db
    if shift < 0:
        return _ZERO, a
    lr, li = br[-1], bi[-1]
    g = gcd(lr, li)
    ur, ui = lr // g, -li // g
    N = (lr * lr + li * li) // g
    pr = [ur * x - ui * y for x, y in zip(br, bi)]
    pi = [ur * y + ui * x for x, y in zip(br, bi)]
    rr, ri = list(ar), list(ai)
    qr, qi = [0] * (shift + 1), [0] * (shift + 1)
    s = 1
    for j in range(shift, -1, -1):
        top = j + db
        tr, ti = rr[top], ri[top]
        if not (tr or ti):
            continue
        if tr % N or ti % N:
            g = gcd(tr, ti, N)
            f = N // g
            rr = [x * f for x in rr[:top + 1]]
            ri = [y * f for y in ri[:top + 1]]
            qr = [x * f for x in qr]
            qi = [y * f for y in qi]
            s *= f
            tr, ti = tr // g, ti // g
        else:
            tr, ti = tr // N, ti // N
        qr[j], qi[j] = tr, ti
        for k, (x, y) in enumerate(zip(pr, pi), j):
            rr[k] -= tr * x - ti * y
            ri[k] -= tr * y + ti * x
    ur, ui = ur * bq, ui * bq
    quotient = _canon(
        [ur * x - ui * y for x, y in zip(qr, qi)], [ur * y + ui * x for x, y in zip(qr, qi)], aq * s
    )
    return quotient, _canon(rr[:db], ri[:db], aq * s)


def _kernel_matrix(rows) -> PolyMatrix:
    """The PolyMatrix of rows of triples, built without PolyMatrix's checks.

    The kernel's triples are polynomials in d by construction, and its rows
    have one length, so nothing is left for the constructor to check.
    """
    out = PolyMatrix.__new__(PolyMatrix)
    out.rows = tuple(tuple(_poly(x) for x in row) for row in rows)
    out.shape = (len(out.rows), len(out.rows[0]) if out.rows else 0)
    return out


def _find_pivot(work, t, n, m):
    """Minimal-degree nonzero entry in the trailing block, row-major ties."""
    best = None
    for r in range(t, n):
        for c in range(t, m):
            re = work[r][c][0]
            if re and (best is None or len(re) < best[0]):
                best = (len(re), r, c)
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
    work = [[_dense(p) for p in row] for row in Mx.rows]
    U = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
    V = [[_ONE if i == j else _ZERO for j in range(m)] for i in range(m)]

    def row_op(dst, src, q):
        # row dst -= q * row src  (on work and U)
        work[dst] = [_sub_mul(a, q, b) for a, b in zip(work[dst], work[src])]
        U[dst] = [_sub_mul(a, q, b) for a, b in zip(U[dst], U[src])]

    def col_op(dst, src, q):
        for r in range(n):
            work[r][dst] = _sub_mul(work[r][dst], q, work[r][src])
        for r in range(m):
            V[r][dst] = _sub_mul(V[r][dst], q, V[r][src])

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
        work[r] = [_scale(x, c) for x in work[r]]
        U[r] = [_scale(x, c) for x in U[r]]

    # Hermite pass (see the module docstring): row operations only, so the
    # Euclidean steps below start from an echelon form with monic pivots
    # and every entry above a pivot reduced modulo it
    h = 0
    for c in range(m):
        if h == n:
            break
        while True:
            live = [r for r in range(h, n) if work[r][c][0]]
            if not live:
                break
            pr = min(live, key=lambda r: len(work[r][c][0]))
            if pr != h:
                swap_rows(h, pr)
            if len(live) == 1:
                break
            for r in range(h + 1, n):
                if work[r][c][0]:
                    q, _ = _divmod(work[r][c], work[h][c])
                    row_op(r, h, q)
        if not work[h][c][0]:
            continue
        lead = _lead(work[h][c])
        if lead != ONE:
            scale_row(h, ONE / lead)
        for r in range(h):
            q, _ = _divmod(work[r][c], work[h][c])
            if q[0]:
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
                if not work[r][t][0]:
                    continue
                q, rem = _divmod(work[r][t], work[t][t])
                row_op(r, t, q)
                if rem[0]:
                    dirty = True
            for c in range(t + 1, m):
                if not work[t][c][0]:
                    continue
                q, rem = _divmod(work[t][c], work[t][t])
                col_op(c, t, q)
                if rem[0]:
                    dirty = True
            if dirty:
                continue
            if len(work[t][t][0]) == 1:
                break  # a unit divides the whole block
            # pivot divides its row and column; enforce divisibility of the block
            offender = None
            for r in range(t + 1, n):
                for c in range(t + 1, m):
                    if not work[r][c][0]:
                        continue
                    _, rem = _divmod(work[r][c], work[t][t])
                    if rem[0]:
                        offender = r
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # fold the offending row into row t and restart the reduction
            row_op(t, offender, _MINUS_ONE)
        if not work[t][t][0]:
            break
    # monic normalization of the nonzero invariants
    for t in range(rank_bound):
        p = work[t][t]
        if not p[0]:
            continue
        lead = _lead(p)
        if lead != ONE:
            scale_row(t, ONE / lead)
    U, D, V = (_kernel_matrix(rows) for rows in (U, work, V))
    # certificate: the nonzero invariants form a divisibility chain
    chain = [D[t, t] for t in range(rank_bound) if not D[t, t].is_zero()]
    for a, b in zip(chain, chain[1:]):
        if not divmod_univar(b, a)[1].is_zero():
            raise AssertionError(f"Smith invariant {a.render()} does not divide {b.render()}")
    return SmithDecomposition(U, D, V)


def torsion_split(presentation: PolyMatrix) -> tuple[int, list[MultiPoly]]:
    """(free rank, torsion invariants) of the module presented by the matrix."""
    return smith_normal_form(presentation).torsion_split()
