"""Reference arithmetic and structural counts for the benchmark's known answers.

Written apart from the library on purpose: a verdict is checked against
closed forms evaluated here, so a fault in the library's own scalars,
polynomials or checkers cannot confirm itself.  Everything is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


class G:
    """Exact Gaussian rational re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        return G(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return G(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return G(-self.re, -self.im)

    def __mul__(self, o):
        return G(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return G((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return bool(self.re or self.im)

    def __repr__(self):
        return f"G({self.re}, {self.im})"


ZERO = G()
ONE = G(1)


def of_scalar(s) -> G:
    """A library Scalar read through its public real and imaginary parts."""
    return G(s.re, s.im)


# -- univariate polynomials in d: dict exponent -> nonzero G ------------------


def upoly(p) -> dict[int, G]:
    """A library polynomial in d alone, as a reference polynomial."""
    out = {}
    for (ed, el, em), c in p.terms.items():
        if el or em:
            raise ValueError(f"entry uses l or m: {p}")
        out[ed] = of_scalar(c)
    return out


def u_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, ZERO) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def u_mul(a, b):
    out: dict[int, G] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out = u_add(out, {ea + eb: ca * cb})
    return out


def u_neg(a):
    return {e: -c for e, c in a.items()}


def u_divides(a, b) -> bool:
    """Does a divide b?  a must be nonzero."""
    da = max(a)
    rem = dict(b)
    while rem and max(rem) >= da:
        top = max(rem)
        q = {top - da: rem[top] / a[da]}
        rem = u_add(rem, u_neg(u_mul(q, a)))
    return not rem


def mat_mul(A, B):
    return [
        [_dot([A[r][t] for t in range(len(B))], [B[t][c] for t in range(len(B))]) for c in range(len(B[0]))]
        for r in range(len(A))
    ]


def _dot(xs, ys):
    acc: dict[int, G] = {}
    for x, y in zip(xs, ys):
        acc = u_add(acc, u_mul(x, y))
    return acc


def det(M):
    """Cofactor expansion; the matrices checked here are at most 4 x 4."""
    if len(M) == 1:
        return M[0][0]
    acc: dict[int, G] = {}
    for c, top in enumerate(M[0]):
        if top:
            minor = [row[:c] + row[c + 1:] for row in M[1:]]
            term = u_mul(top, det(minor))
            acc = u_add(acc, term if c % 2 == 0 else u_neg(term))
    return acc


def binomial_power(b: G, k: int) -> dict[int, G]:
    """(d + b)^k expanded: coefficient of d^j is C(k, j) b^(k-j)."""
    out = {}
    for j in range(k + 1):
        c = G(comb(k, j))
        for _ in range(k - j):
            c = c * b
        if c:
            out[j] = c
    return out


def proportional(p: dict[int, G], q: dict[int, G]) -> bool:
    if not p or not q or set(p) != set(q):
        return False
    e0 = next(iter(p))
    ratio = q[e0] / p[e0]
    return all(q[e] == c * ratio for e, c in p.items())


# -- structural skip counts ----------------------------------------------------


def graded_skips(N: int | None, n: int) -> tuple[int, int, int]:
    """(skew, Jacobi, module-pair) checks beyond truncation N on grades 0..n-1.

    A pair or triple is out of reach exactly when its grade sum exceeds N;
    this holds when every in-range table entry is nonzero, which the
    generators guarantee.
    """
    if N is None:
        return 0, 0, 0
    r = range(n)
    skew = sum(1 for i in r for j in r if i <= j and i + j > N)
    jacobi = sum(1 for x in r for y in r for z in r if x + y + z > N)
    pairs = sum(1 for x in r for y in r if x + y > N)
    return skew, jacobi, pairs


class Beyond(Exception):
    pass


def block_entries(p: G, N: int):
    """[L_i _l L_j] = ((i+p)d + (i+j+2p)l) L_{i+j} for i+j <= N, as {(i,j): {k: {(t,s): c}}}."""
    table = {}
    for i in range(N + 1):
        for j in range(N + 1 - i):
            mono = {(1, 0): G(i) + p, (0, 1): G(i + j) + p + p}
            table[(i, j)] = {i + j: {k: c for k, c in mono.items() if c}}
    return table


def virasoro_entries():
    return {(0, 0): {0: {(1, 0): ONE, (0, 1): G(2)}}}


def sl2_current_entries():
    """Basis (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f, l-free."""
    e, f, h = 0, 1, 2
    table = {(i, j): {} for i in range(3) for j in range(3)}
    for (i, j, k, c) in ((e, f, h, 1), (f, e, h, -1), (h, e, e, 2), (e, h, e, -2), (h, f, f, -2), (f, h, f, 2)):
        table[(i, j)][k] = {(0, 0): G(c)}
    return table


def annih_skips(table, n_gens: int, depth: int) -> tuple[int, int]:
    """(antisymmetry, Jacobi) checks of the depth-truncated annihilation algebra
    that need a symbol beyond the depth or a pair beyond the table.

    [i_(m), j_(n)] = sum over monomials c d^t l^s of p_{i,j,k}:
    C(m,s) s! c (-1)^t (m+n-s)(m+n-s-1)...(m+n-s-t+1) k_(m+n-s-t).
    """

    def br(a, b):
        (i, m), (j, n) = a, b
        if (i, j) not in table:
            raise Beyond
        out: dict[tuple[int, int], G] = {}
        for k, poly in table[(i, j)].items():
            for (t, s), c in poly.items():
                r = m + n - s
                if s > m or t > r:
                    continue
                falling = 1
                for u in range(t):
                    falling *= r - u
                w = c * G(comb(m, s) * factorial(s) * (-1) ** t * falling)
                key = (k, r - t)
                acc = out.get(key, ZERO) + w
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        if any(idx > depth for _, idx in out):
            raise Beyond
        return out

    def reaches(a, b, c):
        for sym in br(a, b):
            br(sym, c)

    syms = [(g, k) for g in range(n_gens) for k in range(depth + 1)]
    antisym = jacobi = 0
    for a in syms:
        for b in syms:
            if a > b:
                continue
            try:
                br(a, b)
                br(b, a)
            except Beyond:
                antisym += 1
    for ia, a in enumerate(syms):
        for ib in range(ia, len(syms)):
            b = syms[ib]
            for c in syms[ib:]:
                try:
                    reaches(a, b, c)
                    reaches(b, c, a)
                    reaches(c, a, b)
                except Beyond:
                    jacobi += 1
    return antisym, jacobi


def solution_table_rows(a_samples, delta_samples) -> int:
    """Rows the eight-row table verification must produce for these samples.

    Generic rows sample every a != 1 (the pinned k=2 row also drops a = 2,
    the k=3 row uses its single admissible a); the a = 1 rows sample a = 1.
    Free rows take every nonzero delta, pinned rows one delta each.
    """
    generic = [a for a in a_samples if a != ONE]
    deltas = sum(1 for d in delta_samples if d)
    k2 = sum(1 for a in generic if a != G(2))
    return 2 * len(generic) * deltas + k2 + 1 + 3 * deltas + 1
