"""Conformal modules as action matrices over polynomials in (d, l).

A module on basis v_1..v_m assigns each algebra generator g_i an m x m
matrix A_i with entries in (d, l), acting columnwise:

    g_i _l v_j = sum_k (A_i)_{k,j}(d, l) v_k

The compatibility axiom with the bracket,

    g_x _l (g_y _m w) = [g_x _l g_y] _{l+m} w + g_y _m (g_x _l w),

is the Jacobi identity of the semidirect sum of the algebra and the
module with its third slot in the module.  The module reuses the
algebra's bracket calculus through ConformalModule.column, the bracket
g_i _l v_c as column c of A_i: the action of an element on a vector is
algebra.lambda_bracket over the columns, and compatibility is checked by
algebra.jacobi_defect with v_c as the extra index n + c, in
algebra._pair_defects, the pair loop check_jacobi runs, where only the
first-slot swap derives.  Each nonzero defect component is a witness.
Pairs whose bracket lies beyond the truncation are reported skipped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import ConformalAlgebra, InvalidStructure, _as_scalar, _pair_defects, _require_distinct, lambda_bracket
from .linalg import nullspace
from .poly import D, L, MultiPoly
from .reports import Report, _render_sum
from .scalars import ONE, Scalar, ZERO


class MissingAction(KeyError):
    """A generator of the algebra has no action matrix."""


class InvalidParams(ValueError):
    """Constructor parameters violate the stated preconditions."""


Matrix = tuple[tuple[MultiPoly, ...], ...]


def _as_matrix(rows) -> Matrix:
    out = []
    width = None
    for row in rows:
        cells = tuple(c if isinstance(c, MultiPoly) else MultiPoly.const(c) for c in row)
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise InvalidStructure("ragged action matrix")
        for c in cells:
            if not c.uses_only(("d", "l")):
                raise InvalidStructure("action entries must be polynomials in d, l")
        out.append(cells)
    if width is not None and width != len(out):
        raise InvalidStructure("action matrices must be square")
    return tuple(out)


@dataclass(frozen=True)
class ConformalModule:
    basis: tuple[str, ...]
    actions: dict[int, Matrix]
    irreducible: bool | None = None

    def __post_init__(self):
        _require_distinct(self.basis, "basis vector")
        m = len(self.basis)
        fixed = {}
        for i, mat in self.actions.items():
            mat = _as_matrix(mat)
            if len(mat) != m:
                raise InvalidStructure("action matrix size must match the basis")
            fixed[i] = mat
        object.__setattr__(self, "actions", fixed)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def action(self, gen: int) -> Matrix:
        try:
            return self.actions[gen]
        except KeyError as exc:
            raise MissingAction(f"no action matrix for generator {gen}") from exc

    def column(self, gen: int, c: int) -> dict[int, MultiPoly]:
        """g_gen _l v_c: column c of the action matrix, keyed by basis index, zeros dropped."""
        return {r: row[c] for r, row in enumerate(self.action(gen)) if not row[c].is_zero()}

    def render_element(self, vec: list[MultiPoly]) -> str:
        return _render_sum((f, name) for f, name in zip(vec, self.basis) if not f.is_zero())


def apply_action(M_: ConformalModule, gen: int, vec: list[MultiPoly]) -> list[MultiPoly]:
    """g_gen _l (sum_j f_j(d) v_j) = sum_j f_j(d+l) (g_gen _l v_j); result in (d, l)."""
    return apply_element_action(M_, {gen: MultiPoly.one()}, vec)


def apply_element_action(M_: ConformalModule, coords: dict[int, MultiPoly], vec: list[MultiPoly]) -> list[MultiPoly]:
    """(sum_i f_i(d) g_i) _l w = sum_i f_i(-l) (g_i _l w).

    Every generator in coords needs an action matrix, whatever vec is.
    """
    image = lambda_bracket(M_.column, coords, dict(enumerate(vec)))
    return [image.get(k, MultiPoly.zero()) for k in range(M_.rank)]


# sesquilinearity spot checks per check_module report, on a fixed seed
_SPOT_CHECKS = 4


def check_module(A: ConformalAlgebra, M_: ConformalModule) -> Report:
    """Bracket-compatibility of all generator pairs on all basis vectors.

    Also spot-verifies sesquilinearity d(g _l w) relations on pseudo-random
    elements with a fixed seed, so reports stay deterministic.
    """
    report = Report("module axioms")
    n = A.n_gens
    m = M_.rank
    for g in range(n):
        M_.action(g)  # raises MissingAction early

    def entry(i: int, j: int) -> dict[int, MultiPoly]:
        # the basis vector v_r is the index n + r
        if j < n:
            return A.entry(i, j)
        return {n + r: p for r, p in M_.column(i, j - n).items()}

    for x, y, defects in _pair_defects(A, entry, range(n, n + m)):
        # asked, not read off the defects: with an empty basis there are none
        if not A.has_entry(x, y):
            report.skip(f"module({x},{y})", "beyond truncation")
            continue
        witnesses = [
            f"defect on {M_.basis[c]} -> {M_.basis[r]}: {defect[n + r].render()}"
            for c, defect in enumerate(defects)
            for r in range(m)
            if n + r in defect
        ]
        if witnesses:
            report.fail(f"module({x},{y})", *witnesses)
        else:
            report.ok(f"module({x},{y})")
    rng = random.Random(20240)
    for t in range(_SPOT_CHECKS):
        g = rng.randrange(n)
        vec = [
            MultiPoly({(rng.randrange(3), 0, 0): Scalar(rng.randint(-3, 3))})
            for _ in range(m)
        ]
        base = apply_action(M_, g, vec)
        # (d a) _l w = -l (a _l w): the d-multiple of a generator acts
        # through the substituted factor
        lhs1 = apply_element_action(M_, {g: D}, vec)
        rhs1 = [(-L) * p for p in base]
        # a _l (d w) = (d + l) (a _l w)
        lhs2 = apply_action(M_, g, [D * f for f in vec])
        rhs2 = [(D + L) * p for p in base]
        ok1 = all((a - b).is_zero() for a, b in zip(lhs1, rhs1))
        ok2 = all((a - b).is_zero() for a, b in zip(lhs2, rhs2))
        if ok1 and ok2:
            report.ok(f"sesquilinearity-spot({t})")
        else:
            report.fail(f"sesquilinearity-spot({t})", f"generator {g}")
    return report


# ---------------------------------------------------------------------------
# constructors


def rank_one_vir(a, b) -> ConformalModule:
    """Rank-one module over the single Virasoro generator: L _l v = (d + a*l + b) v.

    Irreducible exactly when a is nonzero.
    """
    a = _as_scalar(a)
    b = _as_scalar(b)
    poly = D + a * L + MultiPoly.const(b)
    return ConformalModule(("v",), {0: ((poly,),)}, irreducible=not a.is_zero())


def _leading_l_coeff(A: ConformalAlgebra) -> Scalar:
    """The l-coefficient a_1 of the grade-one action [L_0 _l L_1]."""
    entry = A.entry(0, 1)
    if set(entry) != {1}:
        raise InvalidParams("expected [L_0 _l L_1] supported on the grade-one generator")
    p = entry[1]
    coeff = p.coeff_of("l", 1).constant_value()
    if coeff is None:
        raise InvalidParams("grade-one bracket is not affine")
    return coeff


def rank_one_theorem_module(
    A: ConformalAlgebra,
    case: str,
    delta,
    c,
    gamma=None,
    coeffs=None,
) -> ConformalModule:
    """The rank-one actions of a graded algebra with Virasoro grade zero.

    case "a1!=2":   L_0 acts by d + delta*l + c, L_1 by the constant gamma,
                    all higher generators by zero.  gamma may be nonzero only
                    when a_1 = 1, and delta must be nonzero when gamma = 0.
    case "a1=2":    L_i acts by coeffs[i] * (d + delta*l + c) with coeffs[0] = 1
                    implied; delta must be nonzero.
    """
    delta = _as_scalar(delta)
    c = _as_scalar(c)
    n = A.n_gens
    line = D + delta * L + MultiPoly.const(c)
    if case == "a1!=2":
        if coeffs is not None:
            raise InvalidParams("case 'a1!=2' takes no coeffs")
        gamma = ZERO if gamma is None else _as_scalar(gamma)
        if not gamma.is_zero():
            if n < 2:
                raise InvalidParams("no grade-one generator to act by gamma")
            if _leading_l_coeff(A) != ONE:
                raise InvalidParams("a nonzero grade-one action needs a_1 = 1")
        elif delta.is_zero():
            raise InvalidParams("delta must be nonzero when the grade-one action vanishes")
        actions: dict[int, Matrix] = {0: ((line,),)}
        if n >= 2:
            actions[1] = ((MultiPoly.const(gamma),),)
        for i in range(2, n):
            actions[i] = ((MultiPoly.zero(),),)
        return ConformalModule(("v",), actions)
    if case == "a1=2":
        if gamma is not None:
            raise InvalidParams("case 'a1=2' takes no gamma")
        if delta.is_zero():
            raise InvalidParams("delta must be nonzero")
        if coeffs is None:
            raise InvalidParams("the scaled case needs the coefficient sequence")
        coeffs = [_as_scalar(x) for x in coeffs]
        if len(coeffs) != n - 1:
            raise InvalidParams("need one coefficient per generator above grade zero")
        actions = {0: ((line,),)}
        for i in range(1, n):
            actions[i] = ((line * coeffs[i - 1],),)
        return ConformalModule(("v",), actions)
    raise InvalidParams(f"unknown case {case!r}")


# ---------------------------------------------------------------------------
# action kernel


@dataclass(frozen=True)
class KernelResult:
    zero_generators: tuple[int, ...]
    combinations: tuple[tuple[Scalar, ...], ...]

    def contains_direction(self, direction) -> bool:
        """Is the given coefficient vector in the span of the kernel (exactly)?

        It is iff some linear relation among the combinations and the
        direction puts a nonzero coefficient on the direction; that
        coefficient is linear, so then some basis relation has it too.
        """
        vec = [_as_scalar(x) for x in direction]
        n = len(self.combinations)
        columns = [dict(enumerate(v)) for v in (*self.combinations, vec)]
        return any(n in relation for relation in nullspace(columns))


def action_kernel(A: ConformalAlgebra, M_: ConformalModule) -> KernelResult:
    """Generators acting as zero, plus scalar combinations of generators
    whose combined action matrix vanishes identically."""
    n = A.n_gens
    m = M_.rank
    zero_gens = tuple(
        i for i in range(n)
        if all(M_.action(i)[r][c].is_zero() for r in range(m) for c in range(m))
    )
    # the image of generator i: its action's coefficient per (matrix cell, monomial)
    columns = [
        {
            (r, c, key): coeff
            for r in range(m)
            for c in range(m)
            for key, coeff in M_.action(i)[r][c].terms.items()
        }
        for i in range(n)
    ]
    combos = tuple(tuple(v.get(i, ZERO) for i in range(n)) for v in nullspace(columns))
    return KernelResult(zero_gens, combos)
