import json
import os
import re
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, perm

import pytest
from hypothesis import given, settings, strategies as st

from lieconformal.algebra import (
    ConformalAlgebra,
    TruncationExceeded,
    block,
    current,
    map_virasoro_poly,
    sl2_constants,
    vir_semidirect_current,
    virasoro,
)
from lieconformal.annihilation import (
    AnnihAlgebra,
    NonTriangularWindow,
    WeightReport,
    _refuse_unless_triangular,
    annih_bracket,
    check_annih_lie,
    module_action_n,
    render_combination,
    weight_spaces,
)
from lieconformal.linalg import nullspace
from lieconformal.modules import (
    ConformalModule,
    apply_action,
    check_module,
    rank_one_theorem_module,
    rank_one_vir,
)
from lieconformal.parsing import parse_poly
from lieconformal.poly import D, L, MultiPoly
from lieconformal.reports import Report
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


def test_check_annih_lie_computes_each_symbol_pair_once_when_read(monkeypatch):
    # a pair is computed the first time an identity reads it and never again:
    # 48 of the 49 ordered pairs of virasoro() at depth 6, and 1,716 of the
    # 1,764 of block(1, 6) at depth 5, where more identities skip
    from lieconformal import annihilation

    calls = []
    real = annihilation.annih_bracket

    def counting(X, a, b):
        calls.append((a, b))
        return real(X, a, b)

    monkeypatch.setattr(annihilation, "annih_bracket", counting)
    for A, depth, count in ((virasoro(), 6, 48), (block(1, 6), 5, 1716)):
        calls.clear()
        check_annih_lie(AnnihAlgebra(A, depth))
        assert len(calls) == len(set(calls)) == count


@pytest.mark.parametrize("bad", [2.5, True, False, "3", None, -1])
def test_a_depth_or_degree_bound_must_be_a_nonnegative_int(bad):
    # a float failed later inside range, and a bool was read as 0 or 1
    with pytest.raises(ValueError, match="depth must be"):
        AnnihAlgebra(virasoro(), bad)
    with pytest.raises(ValueError, match="degree bound must be"):
        weight_spaces(rank_one_vir(2, 0), bad)


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


# -- check_annih_lie and its witness text against the code they replaced -------


def accumulate(out, key, value):
    """out[key] += value on a sparse vector, a key whose sum is zero dropped: the references' in-place sum."""
    acc = out.get(key)
    acc = value if acc is None else acc + value
    if acc.is_zero():
        out.pop(key, None)
    else:
        out[key] = acc


def _render_combination_by_hand(X, comb_):
    if not comb_:
        return "0"
    gens = X.parent.gens
    return " + ".join(f"({coeff})*{gens[g]}_({n})" for (g, n), coeff in sorted(comb_.items()))


def _bracket_combinations(bracket, a, b):
    """[a, b] of two combinations, bilinearly: the Jacobi sums were built from this."""
    out = {}
    for sa, ca in a.items():
        for sb, cb in b.items():
            for sym, coeff in bracket(sa, sb).items():
                accumulate(out, sym, ca * cb * coeff)
    return out


def _annih_bracket_by_terms(X, left, right):
    """annih_bracket with each term of each s-th product accumulated on its own."""
    (i, m), (j, n) = left, right
    for idx in (m, n):
        if not (0 <= idx <= X.depth):
            raise TruncationExceeded(f"index {idx} beyond depth {X.depth}")
    out = {}
    for s, coords in enumerate(X.products(i, j)[: m + 1]):
        r = m + n - s
        for gen, f in coords.items():
            for key, coeff in f.terms.items():
                t = key[0]
                if t <= r:
                    accumulate(out, (gen, r - t), coeff * Scalar(comb(m, s) * (-1) ** t * perm(r, t)))
    if any(idx > X.depth for _, idx in out):
        raise TruncationExceeded("beyond depth")
    return out


def _check_annih_lie_by_three_sums(X):
    """check_annih_lie with each Jacobi identity summed from three partial dicts."""
    report = Report("annihilation Lie algebra")

    def bracket(a, b):
        return _annih_bracket_by_terms(X, a, b)

    syms = X.symbols()
    for a in syms:
        for b in syms:
            if a > b:
                continue
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
                report.fail(f"antisym{a}{b}", _render_combination_by_hand(X, defect))
            else:
                report.ok(f"antisym{a}{b}")
    for a in syms:
        for b in syms:
            if b < a:
                continue
            for c in syms:
                if c < b:
                    continue
                try:
                    d1 = _bracket_combinations(bracket, bracket(a, b), {c: ONE})
                    d2 = _bracket_combinations(bracket, bracket(b, c), {a: ONE})
                    d3 = _bracket_combinations(bracket, bracket(c, a), {b: ONE})
                except TruncationExceeded:
                    report.skip(f"jacobi{a}{b}{c}", "beyond depth")
                    continue
                defect = {}
                for d in (d1, d2, d3):
                    for sym, coeff in d.items():
                        accumulate(defect, sym, coeff)
                if defect:
                    report.fail(f"jacobi{a}{b}{c}", _render_combination_by_hand(X, defect))
                else:
                    report.ok(f"jacobi{a}{b}{c}")
    return report


_gaussian = st.builds(
    Scalar,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)


@st.composite
def _corrupted_blocks(draw):
    """block(p, 1) or block(p, 2), ungraded, with one Gaussian monomial d^i l^j added to one entry."""
    B = block(draw(_gaussian.filter(lambda p: not p.is_zero())), draw(st.integers(1, 2)))
    table = {pair: dict(entry) for pair, entry in B.table.items()}
    pair = draw(st.sampled_from(sorted(table)))
    gen = draw(st.integers(0, B.n_gens - 1))
    extra = draw(_gaussian) * D ** draw(st.integers(0, 2)) * L ** draw(st.integers(0, 2))
    table[pair][gen] = table[pair].get(gen, MultiPoly.zero()) + extra
    return ConformalAlgebra(B.gens, table)


_annih_parents = st.one_of(
    st.just(virasoro()),
    st.builds(block, _gaussian.filter(lambda p: not p.is_zero()), st.just(1)),
    st.just(current(*sl2_constants())),
    # these two fail: a twisted semidirect sum and a corrupted Virasoro bracket
    _gaussian.map(lambda a: vir_semidirect_current(a, *sl2_constants())),
    _gaussian.map(lambda c: ConformalAlgebra(("L",), {(0, 0): {0: D + c * L}})),
    _corrupted_blocks(),
)


@settings(max_examples=40, deadline=None)
@given(_annih_parents, st.integers(0, 4))
def test_check_annih_lie_is_the_sum_of_three_partial_dicts(A, depth):
    X = AnnihAlgebra(A, depth)
    assert check_annih_lie(X).to_dict() == _check_annih_lie_by_three_sums(X).to_dict()
    for a in X.symbols():
        for b in X.symbols():
            try:
                expected = _annih_bracket_by_terms(X, a, b)
            except TruncationExceeded:
                with pytest.raises(TruncationExceeded):
                    annih_bracket(X, a, b)
            else:
                assert annih_bracket(X, a, b) == expected


def _check_annih_lie_by_nested_loops(X):
    """check_annih_lie as nested loops over all symbols, keeping pairs a <= b and triples a <= b <= c."""
    report = Report("annihilation Lie algebra")

    def bracket(a, b):
        return annih_bracket(X, a, b)

    syms = X.symbols()
    for a in syms:
        for b in syms:
            if a > b:
                continue
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
    for a in syms:
        for b in syms:
            if b < a:
                continue
            for c in syms:
                if c < b:
                    continue
                defect = {}
                try:
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


@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize(
    "A",
    [
        virasoro(),
        block(sc("3/2", -1), 1),
        current(*sl2_constants()),
        ConformalAlgebra(("L",), {(0, 0): {0: D + 3 * L}}),
    ],
    ids=["virasoro", "block", "current-sl2", "corrupted"],
)
def test_check_annih_lie_walks_the_pairs_and_triples_of_the_nested_loops(A, depth):
    X = AnnihAlgebra(A, depth)
    assert check_annih_lie(X).checks == _check_annih_lie_by_nested_loops(X).checks


@given(
    st.sampled_from((virasoro(), current(*sl2_constants()))),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 4)), _gaussian, max_size=4),
)
def test_render_combination_is_the_written_out_text(A, comb_):
    X = AnnihAlgebra(A, 4)
    comb_ = {(g % A.n_gens, n): c for (g, n), c in comb_.items()}
    assert render_combination(X, comb_) == _render_combination_by_hand(X, comb_)
    assert render_combination(X, {}) == "0"


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


def _reaches(M, degree_bound):
    """Each unknown (j, t) of the window, standing for d^t v_j, and the unknowns its image reaches."""
    reach = {}
    for j in range(M.rank):
        for t in range(degree_bound + 1):
            vec = [MultiPoly.zero()] * M.rank
            vec[j] = MultiPoly({(t, 0, 0): ONE})
            image = module_action_n(M, 0, 1, vec)
            reach[(j, t)] = {(k, key[0]) for k, p in enumerate(image) for key in p.terms} - {(j, t)}
    return reach


def test_a_cyclic_window_names_an_edge_of_its_cycle_whatever_the_term_order():
    # column j is the action on v_j: d^t u reaches d^t v and d^(t-1) v, and
    # d^t v reaches d^t w and d^(t-1) w, each image in the order of its
    # entry's terms, and d^t w reaches d^t v.  A walk from d^1 u along the
    # first term met found a cycle at d^1 or at d^0 by the entries' text;
    # the refusal names an edge whose target leads back to its source, and
    # the same one for either order
    rows = (("d + 2*l", "0", "0"), ("d + 1", "d + 2*l", "l"), ("0", "l + d + 1", "d + 2*l"))
    basis = ("u", "v", "w")
    messages = []
    for order in (1, -1):
        written = [[" + ".join(entry.split(" + ")[::order]) for entry in row] for row in rows]
        M = ConformalModule(basis, {0: tuple(tuple(parse_poly(e) for e in row) for row in written)})
        with pytest.raises(NonTriangularWindow, match="on a cycle of the window") as err:
            weight_spaces(M, 3)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    t, j, s, k = re.search(r"d\^(\d+) (\w+) reaches d\^(\d+) (\w+), on a cycle", messages[0]).groups()
    source, target = (basis.index(j), int(t)), (basis.index(k), int(s))
    reach = _reaches(M, 3)
    assert target in reach[source]
    seen, todo = set(), [target]
    while todo:
        col = todo.pop()
        if col not in seen:
            seen.add(col)
            todo.extend(reach[col])
    assert source in seen


# -- weight_spaces against one nullspace of the whole window per weight ---------


def _weight_spaces_by_columns(M, degree_bound):
    """weight_spaces with each weight solved by one nullspace of the whole
    window, every column copied with the weight taken off its diagonal."""
    m = M.rank
    cols = [(j, t) for j in range(m) for t in range(degree_bound + 1)]
    images = []
    for j, t in cols:
        vec = [MultiPoly.zero()] * m
        vec[j] = MultiPoly({(t, 0, 0): ONE})
        image = module_action_n(M, 0, 1, vec)
        images.append({(k, key[0]): coeff for k, p in enumerate(image) for key, coeff in p.terms.items()})
    _refuse_unless_triangular(M, 0, degree_bound, dict(zip(cols, images)))
    reports = []
    for alpha in sorted({image.get(col, ZERO) for col, image in zip(cols, images)}, key=Scalar.sort_key):
        columns = [{**image, cols[i]: image.get(cols[i], ZERO) - alpha} for i, image in enumerate(images)]
        vectors = []
        for coeffs in nullspace(columns):
            terms = [{} for _ in range(m)]
            for i, coeff in coeffs.items():
                j, t = cols[i]
                terms[j][(t, 0, 0)] = coeff
            vectors.append(tuple(MultiPoly(x) for x in terms))
        if vectors:
            reports.append(WeightReport(alpha, tuple(vectors)))
    return reports


_rational = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(Scalar)
# an entry off the diagonal: d^t v reaches d^t w through l, d^(t-1) w through
# a constant and d^(t+1) w through d*l, which leaves the window at the top
_off_diagonal = st.sampled_from((MultiPoly.zero(), L, MultiPoly.one()) * 3 + (D * L,))


@st.composite
def _triangular_windows(draw):
    """A module on 1 to 4 basis vectors whose action is triangular in a
    drawn basis order, with lines d + a*l + b on the diagonal whose slopes
    repeat or differ by an integer, so weights repeat; sometimes one entry
    against that order, which may close a cycle; and a degree bound."""
    rank = draw(st.integers(1, 4))
    order = draw(st.permutations(range(rank)))
    numbers = draw(st.sampled_from((_rational, _gaussian)))
    slope = draw(numbers)
    slopes = (slope, slope + Scalar(draw(st.integers(-2, 2))), draw(numbers))
    rows = [[MultiPoly.zero()] * rank for _ in range(rank)]
    for k in range(rank):
        rows[k][k] = D + draw(st.sampled_from(slopes)) * L + draw(numbers)
    for i, j in combinations(range(rank), 2):
        # column order[j], the action on v_order[j], reaches v_order[i]
        rows[order[i]][order[j]] = draw(_off_diagonal) * draw(numbers)
    if rank > 1 and draw(st.integers(0, 3)) == 0:
        rows[order[-1]][order[0]] = L * draw(numbers)
    basis = tuple(f"v{k}" for k in range(rank))
    return ConformalModule(basis, {0: tuple(map(tuple, rows))}), draw(st.integers(0, 6))


@settings(max_examples=150, deadline=None)
@given(_triangular_windows())
def test_weight_spaces_is_one_nullspace_of_the_whole_window_per_weight(window):
    M, degree_bound = window
    try:
        expected = _weight_spaces_by_columns(M, degree_bound)
    except NonTriangularWindow as err:
        with pytest.raises(NonTriangularWindow) as refused:
            weight_spaces(M, degree_bound)
        assert str(refused.value) == str(err)
    else:
        assert weight_spaces(M, degree_bound) == expected
