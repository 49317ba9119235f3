import json
import os
from fractions import Fraction
from math import factorial

import pytest

from lieconformal.algebra import (
    ConformalAlgebra,
    block,
    map_virasoro_poly,
    sl2_constants,
    vir_semidirect_current,
    virasoro,
)
from lieconformal.annihilation import (
    AnnihAlgebra,
    NonTriangularWindow,
    annih_bracket,
    check_annih_lie,
    module_action_n,
    weight_spaces,
)
from lieconformal.modules import (
    ConformalModule,
    apply_action,
    check_module,
    rank_one_theorem_module,
    rank_one_vir,
)
from lieconformal.poly import D, L, MultiPoly
from lieconformal.scalars import ONE, Scalar, ZERO, sc


def test_witt_relations():
    X = AnnihAlgebra(virasoro(), 6)
    assert annih_bracket(X, (0, 2), (0, 1)) == {(0, 2): ONE}
    assert annih_bracket(X, (0, 1), (0, 1)) == {}
    for m in range(4):
        for n in range(4):
            if m + n - 1 > 6 or m + n - 1 < 0:
                continue
            expected = Scalar(m - n)
            result = annih_bracket(X, (0, m), (0, n))
            if expected.is_zero():
                assert result == {}
            else:
                assert result == {(0, m + n - 1): expected}


def test_map_virasoro_indexed_bracket():
    # [(T-line 1)_(1), (T-line 1)_(2)] = (1-2) * (index 2 line of T^2)
    X = AnnihAlgebra(map_virasoro_poly(3), 6)
    assert annih_bracket(X, (1, 1), (1, 2)) == {(2, 2): Scalar(-1)}
    # the full relation: [line_a^(m), line_b^(n)] = (m-n) line_{a+b}^(m+n-1)
    for a in range(3):
        for b in range(3 - a):
            for m in range(4):
                for n in range(4):
                    expected = Scalar(m - n)
                    if expected.is_zero():
                        assert annih_bracket(X, (a, m), (b, n)) == {}
                    elif 0 <= m + n - 1 <= 6:
                        assert annih_bracket(X, (a, m), (b, n)) == {
                            (a + b, m + n - 1): expected
                        }


def test_check_annih_lie_passes():
    assert check_annih_lie(AnnihAlgebra(virasoro(), 6)).passed
    rep = check_annih_lie(AnnihAlgebra(block(1, 6), 5))
    assert rep.passed
    assert rep.skipped  # out-of-depth triples are visible


def test_check_annih_lie_brackets_each_generator_pair_once(monkeypatch):
    # the 7 symbols of virasoro() at depth 6 give 49 symbol pairs, all of
    # one generator pair, whose bracket and n-th products are built once
    from lieconformal import annihilation

    calls = []
    real = annihilation.conformal_bracket

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(annihilation, "conformal_bracket", counting)
    assert check_annih_lie(AnnihAlgebra(virasoro(), 6)).passed
    assert len(calls) == 1


def test_check_annih_lie_catches_sign_corruption():
    corrupt = ConformalAlgebra(("L",), {(0, 0): {0: D + 3 * L}})
    rep = check_annih_lie(AnnihAlgebra(corrupt, 4))
    assert not rep.passed


_PINNED = os.path.join(os.path.dirname(__file__), "golden", "annih_reports.json")


def _pinned_annih_algebras():
    return {
        "virasoro() at depth 4": AnnihAlgebra(virasoro(), 4),
        "block(1, 3) at depth 3": AnnihAlgebra(block(1, 3), 3),
        "virasoro with p_00 = d + 3*l at depth 4": AnnihAlgebra(
            ConformalAlgebra(("L",), {(0, 0): {0: D + 3 * L}}), 4
        ),
        "vir_semidirect_current(2, sl2) at depth 2": AnnihAlgebra(
            vir_semidirect_current(2, *sl2_constants()), 2
        ),
    }


def test_check_annih_lie_reports_are_pinned():
    # full reports, witness text and order included: a passing one, one
    # with truncation skips, and two that fail (the second with skips too)
    with open(_PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    algebras = _pinned_annih_algebras()
    assert list(pinned) == list(algebras)
    reports = {name: check_annih_lie(X).to_dict() for name, X in algebras.items()}
    assert reports == pinned
    counts = [r["counts"] for r in reports.values()]
    assert counts[0]["fail"] == 0
    assert counts[1]["fail"] == 0 and counts[1]["skipped"]
    assert counts[2]["fail"] == 27
    assert counts[3]["fail"] == 27 and counts[3]["skipped"] == 122


def test_indexed_module_actions():
    M = rank_one_vir(sc("5/2"), sc(-3))
    v = [MultiPoly.one()]
    assert module_action_n(M, 0, 1, v) == [MultiPoly.const(sc("5/2"))]
    assert module_action_n(M, 0, 0, v) == [D - 3]
    assert module_action_n(M, 0, 3, v) == [MultiPoly.zero()]


def reconstruct_lambda_action(M, gen, vec):
    """Rebuild g _l v as sum_n (indexed action) l^n / n!: the oracle of apply_action."""
    direct = apply_action(M, gen, vec)
    out = [MultiPoly.zero()] * M.rank
    for n in range(max(((p.degree_in("l") or 0) for p in direct), default=0) + 1):
        scale = L**n * Scalar(Fraction(1, factorial(n)))
        for k, part in enumerate(module_action_n(M, gen, n, vec)):
            out[k] = out[k] + part * scale
    return out


def test_lambda_action_reconstruction():
    V = map_virasoro_poly(4)
    M = rank_one_theorem_module(V, "a1=2", sc(2), sc("1/5"), coeffs=[sc("1/2") ** i for i in range(1, 4)])
    for gen in range(4):
        for vec in ([MultiPoly.one()], [D * D]):
            assert reconstruct_lambda_action(M, gen, vec) == apply_action(M, gen, vec)
    R = rank_one_vir(2, 0)
    assert reconstruct_lambda_action(R, 0, [D]) == apply_action(R, 0, [D])


def test_weight_spaces_rank_one():
    for a, b in ((2, ZERO), (1, Scalar(3)), (sc("1/2"), Scalar(-1))):
        a = a if isinstance(a, Scalar) else Scalar(a)
        M = rank_one_vir(a, b)
        reports = weight_spaces(M, 4)
        weights = [w.weight for w in reports]
        assert weights == [a + Scalar(k) for k in range(5)]
        for k, rep in enumerate(reports):
            assert rep.dim == 1
            vec = rep.vectors[0][0]
            expected = (D + MultiPoly.const(b)) ** k
            lead = max(vec.terms, key=lambda key: key[0])
            scale = vec.terms[lead]
            assert vec == expected * scale


def test_weight_spaces_trivial_module():
    zero = ((MultiPoly.zero(), MultiPoly.zero()), (MultiPoly.zero(), MultiPoly.zero()))
    M = ConformalModule(("u", "w"), {0: zero})
    reports = weight_spaces(M, 2)
    assert len(reports) == 1
    assert reports[0].weight == ZERO
    assert reports[0].dim == 6  # the whole filtration


def test_weight_spaces_rank_two_direct_sum():
    a, b = Scalar(2), ZERO
    line = D + a * L
    zero = MultiPoly.zero()
    M = ConformalModule(("v1", "v2"), {0: ((line, zero), (zero, line))})
    reports = weight_spaces(M, 5)
    assert [w.weight for w in reports] == [a + Scalar(k) for k in range(6)]
    assert all(w.dim == 2 for w in reports)


def test_weight_multiplicity_bound_at_rank_one():
    # weights of an irreducible rank-one line never exceed multiplicity one
    for a, b in ((Scalar(3), Scalar(2)), (sc("-1/2"), ZERO)):
        reports = weight_spaces(rank_one_vir(a, b), 5)
        assert all(w.dim == 1 for w in reports)
        assert all((w.weight - a).im == 0 for w in reports)
        diffs = [(w.weight - a).re for w in reports]
        assert all(x.denominator == 1 and x >= 0 for x in diffs)


def test_weight_spaces_refuses_a_non_triangular_window():
    # (d+2l) + (d) after the constant base change [[1,1],[1,-1]]: a module,
    # yet d^t v1 reaches d^t v2, so the diagonal of the index-1 matrix holds
    # only weights 1..4 of the direct sum's 0..5; refused, not truncated
    line, cross = D + L, L
    conjugated = ConformalModule(("v1", "v2"), {0: ((line, cross), (cross, line))})
    assert check_module(virasoro(), conjugated).passed
    with pytest.raises(NonTriangularWindow, match="not triangular on the degree window"):
        weight_spaces(conjugated, 3)
    zero = MultiPoly.zero()
    direct_sum = ConformalModule(("v1", "v2"), {0: ((D + 2 * L, zero), (zero, D))})
    reports = weight_spaces(direct_sum, 3)
    assert [(w.weight, w.dim) for w in reports] == [
        (Scalar(k), dim) for k, dim in enumerate((1, 1, 2, 2, 1, 1))
    ]


def test_weight_spaces_accepts_a_window_triangular_in_another_order():
    # triangular once each d^t v2 comes before d^t v1: the reach of the
    # window has no cycle, so its diagonal holds the direct sum's weights
    zero = MultiPoly.zero()
    for actions in (((D + 2 * L, zero), (L, D)), ((D, zero), (L, D + 2 * L))):
        M = ConformalModule(("v1", "v2"), {0: actions})
        assert check_module(virasoro(), M).passed
        reports = weight_spaces(M, 3)
        assert [(w.weight, w.dim) for w in reports] == [
            (Scalar(k), dim) for k, dim in enumerate((1, 1, 2, 2, 1, 1))
        ]
        for w in reports:
            for vec in w.vectors:
                assert module_action_n(M, 0, 1, list(vec)) == [w.weight * p for p in vec]


def test_weight_spaces_refuses_a_window_the_action_leaves():
    # d^t v reaches d^(t+1) v: acyclic, but the top degree leaves the window
    raising = ConformalModule(("v",), {0: ((D * D,),)})
    with pytest.raises(NonTriangularWindow, match="d\\^3 v reaches d\\^4 v, past the degree bound 3"):
        weight_spaces(raising, 3)
