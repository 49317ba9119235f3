import json
import os
import random
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from lieconformal import algebra
from lieconformal.algebra import (
    AlgebraElement,
    ConformalAlgebra,
    InvalidStructure,
    TruncationExceeded,
    _as_scalar,
    _skew_defect,
    _validate_antisymmetric,
    abelian_constants,
    block,
    bracket,
    check_jacobi,
    check_skew,
    current,
    jacobi_defect,
    jth_product,
    map_virasoro,
    map_virasoro_poly,
    nonabelian2_constants,
    skew_image,
    sl2_constants,
    truncated_polynomial_products,
    vir_semidirect_current,
    virasoro,
)
from lieconformal.poly import D, L, M, MultiPoly
from lieconformal.reports import Report
from lieconformal.scalars import I, ONE, Scalar, sc


def test_virasoro_bracket():
    A = virasoro()
    assert bracket(A, A.gen(0), A.gen(0)) == {0: D + 2 * L}


def test_bracket_left_sesquilinearity_forced():
    A = virasoro()
    assert bracket(A, A.gen(0) * D, A.gen(0)) == {0: -L * (D + 2 * L)}


def test_block_bracket_value():
    # ((i+p)d + (i+j+2p)l) at i=1, j=2, p=1
    B = block(1, 8)
    assert bracket(B, B.gen(1), B.gen(2)) == {3: 2 * D + 5 * L}


def test_bracket_sesquilinearity_on_random_elements():
    B = block(1, 6)
    rng = random.Random(7)
    for _ in range(8):
        i = rng.randrange(3)
        j = rng.randrange(3)
        f = MultiPoly({(rng.randrange(3), 0, 0): Scalar(rng.randint(-3, 3))})
        x = B.element({i: f})
        y = B.gen(j)
        assert bracket(B, x * D, y) == {
            k: -L * p for k, p in bracket(B, x, y).items()
        }
        assert bracket(B, x, y * D) == {
            k: (D + L) * p for k, p in bracket(B, x, y).items()
        }


def test_check_skew_passes_for_builtins():
    assert check_skew(virasoro()).passed
    rep = check_skew(block(1, 8))
    assert rep.passed
    assert rep.skipped  # out-of-range pairs are reported, not dropped


def test_check_skew_detects_defect():
    table = {
        (0, 0): {0: D + 2 * L},
        (0, 1): {1: D},
        (1, 0): {1: D},
        (1, 1): {},
    }
    A = ConformalAlgebra(("a", "b"), table)
    rep = check_skew(A)
    assert not rep.passed
    # defect p_{0,1}(d,l) + p_{1,0}(d,-l-d) = 2d, expanded by hand
    assert any("2*d" in w for item in rep.failures for w in item.witnesses)


def test_check_jacobi_virasoro():
    assert check_jacobi(virasoro()).passed


def test_check_jacobi_truncated_map_virasoro():
    rep = check_jacobi(map_virasoro_poly(9))
    assert rep.passed
    checked = {c.check_id for c in rep.checks if c.status == "pass"}
    skipped = {c.check_id for c in rep.checks if c.status == "skipped"}
    # triples are checked exactly when their grade sum stays in range
    assert "jacobi(2,3,3)" in checked
    assert "jacobi(3,3,3)" in skipped


def test_check_jacobi_rejects_nonabelian_twist():
    constants, labels = nonabelian2_constants()
    bad = vir_semidirect_current(0, constants, labels)
    rep = check_jacobi(bad)
    assert not rep.passed
    good = vir_semidirect_current(1, constants, labels)
    assert check_jacobi(good).passed


@pytest.mark.parametrize("a", [Scalar(0), Scalar(3), ONE + I, ONE])
def test_jacobi_defect_closed_form(a):
    # generators L, e, f, h: only the twist of [e _m f] = h by L survives
    A = vir_semidirect_current(a, *sl2_constants())
    expected = {} if a == ONE else {3: (ONE - a) * L}
    assert jacobi_defect(A.entry, 0, 1, 2) == expected


_dl_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.just(0)),
    st.builds(
        Scalar,
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
    ),
    max_size=6,
).map(MultiPoly)


@given(_dl_polys)
def test_skew_image_is_an_involution(p):
    assert skew_image(skew_image(p)) == p


def _swap_lm(p):
    """p(d, m, l): the reference l <-> m swap, exponent by exponent."""
    return MultiPoly({(e_d, e_m, e_l): c for (e_d, e_l, e_m), c in p.terms.items()})


def _defect_or_skip(A, x, y, z):
    try:
        return jacobi_defect(A.entry, x, y, z)
    except TruncationExceeded:
        return None


_gaussian = st.builds(
    Scalar,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
_skew_tables = st.one_of(
    st.builds(block, _gaussian.filter(lambda p: not p.is_zero()), st.integers(1, 4)),
    st.builds(map_virasoro_poly, st.integers(1, 4)),
    _gaussian.map(lambda a: vir_semidirect_current(a, *sl2_constants())),
)


@given(_skew_tables, st.data())
def test_jacobi_defect_swapped_pair(A, data):
    # with skew-symmetry on (x, y), swapping the first two slots swaps l and
    # m and flips the sign; the two orders read the same entries, so they
    # raise TruncationExceeded together
    x, y, z = (data.draw(st.integers(0, A.n_gens - 1)) for _ in range(3))
    forward = _defect_or_skip(A, x, y, z)
    swapped = _defect_or_skip(A, y, x, z)
    assert (forward is None) == (swapped is None)
    if forward is not None:
        assert swapped == {k: -_swap_lm(p) for k, p in forward.items()}


_GRADED_PAIRS = [(i, j) for i in range(5) for j in range(i, 5) if i + j <= 4]


def _graded_skew_entry(polys):
    """entry(i, j) of a table on grades 0..4 from one polynomial per pair i <= j.

    p_{j,i} is the skew image of p_{i,j}, and a diagonal entry is f plus its
    skew image, so skew-symmetry holds on every pair; a pair past grade 4
    brackets to zero.  Jacobi is not imposed and mostly fails.
    """
    table = {}
    for (i, j), f in zip(_GRADED_PAIRS, polys):
        if i == j:
            table[(i, i)] = f + skew_image(f)
        else:
            table[(i, j)], table[(j, i)] = f, skew_image(f)

    def entry(i, j):
        p = table.get((i, j))
        return {i + j: p} if p else {}

    return entry


_M_TO_NEG_L_M_D = -L - M - D


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_dl_polys, min_size=len(_GRADED_PAIRS), max_size=len(_GRADED_PAIRS)),
    st.sampled_from([(x, y, z) for x in range(5) for y in range(5) for z in range(5) if x + y + z <= 4]),
)
def test_jacobi_defect_orbit_under_skew(polys, triple):
    # the permutation orbit the scan's grade check relies on: with skew on
    # every pair, swapping the last two slots is -J with m -> -l-m-d, and
    # swapping the first two is -J with l and m swapped
    entry = _graded_skew_entry(polys)
    x, y, z = triple
    forward = jacobi_defect(entry, x, y, z)
    assert jacobi_defect(entry, x, z, y) == {
        k: -p.substitute("m", _M_TO_NEG_L_M_D) for k, p in forward.items()
    }
    assert jacobi_defect(entry, y, x, z) == {k: -_swap_lm(p) for k, p in forward.items()}


def _corrupted(A, key, k, extra):
    """A with extra added to component k of the entry at key, nothing else changed."""
    table = {pair: dict(vec) for pair, vec in A.table.items()}
    vec = table[key]
    vec[k] = vec.get(k, MultiPoly.zero()) + extra
    return ConformalAlgebra(A.gens, table, grades=A.grades, truncation=A.truncation)


_PINNED = os.path.join(os.path.dirname(__file__), "golden", "check_jacobi_reports.json")


def test_check_jacobi_reports_are_pinned():
    # full reports, witness text and order included: skew fails on the pair
    # (1, 2) of the corrupted block table, holds on every pair of the other
    # two, and the corrupted map_virasoro_poly(4) has truncation skips
    tables = {
        "block(1,4) with p_{1,2} + l^2": _corrupted(block(1, 4), (1, 2), 3, L * L),
        "vir_semidirect_current(3, sl2)": vir_semidirect_current(3, *sl2_constants()),
        "map_virasoro_poly(4) with p_{0,2}, p_{2,0} + l^2": _corrupted(
            _corrupted(map_virasoro_poly(4), (0, 2), 2, L * L), (2, 0), 2, skew_image(L * L)
        ),
    }
    with open(_PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert list(pinned) == list(tables)
    reports = {name: check_jacobi(A).to_dict() for name, A in tables.items()}
    assert reports == pinned
    counts = [r["counts"] for r in reports.values()]
    assert all(c["fail"] for c in counts)
    assert counts[2]["skipped"]
    assert not check_skew(tables["block(1,4) with p_{1,2} + l^2"]).passed
    assert check_skew(tables["vir_semidirect_current(3, sl2)"]).passed
    assert check_skew(tables["map_virasoro_poly(4) with p_{0,2}, p_{2,0} + l^2"]).passed


def _check_jacobi_by_hand(A):
    """check_jacobi's report as a dict, from jacobi_defect on every ordered triple."""
    report = Report("jacobi")
    n = A.n_gens
    for x in range(n):
        for y in range(n):
            for z in range(n):
                check_id = f"jacobi({x},{y},{z})"
                defect = _defect_or_skip(A, x, y, z)
                if defect is None:
                    report.skip(check_id, "beyond truncation")
                elif defect:
                    report.fail(check_id, A.render_vector(defect))
                else:
                    report.ok(check_id)
    return report.to_dict()


@st.composite
def _corrupted_tables(draw):
    """A table of _skew_tables with one Gaussian monomial added to one entry inside its truncation."""
    A = draw(_skew_tables)
    i, j = draw(st.sampled_from(sorted(A.table)))
    # block and map_virasoro_poly put generator i at grade i
    k = i + j if A.grades is not None else draw(st.integers(0, A.n_gens - 1))
    key = (draw(st.integers(0, 2)), draw(st.integers(0, 2)), 0)
    return _corrupted(A, (i, j), k, MultiPoly({key: draw(_gaussian.filter(lambda c: not c.is_zero()))}))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_skew_tables, _corrupted_tables()))
def test_check_jacobi_is_the_identity_on_every_ordered_triple(A):
    # the derived orderings, witnesses and truncation skips included, on
    # tables where skew holds everywhere and on ones where it fails on a pair
    assert check_jacobi(A).to_dict() == _check_jacobi_by_hand(A)


def test_check_jacobi_computes_each_orbit_once(monkeypatch):
    calls = []

    def counted(entry, x, y, z):
        calls.append((x, y, z))
        return jacobi_defect(entry, x, y, z)

    monkeypatch.setattr(algebra, "jacobi_defect", counted)
    # with skew on every pair, one call per sorted triple whose three pairs
    # lie inside the truncation: y + z <= 6 on block(1, 6), y + z <= 4 on
    # map_virasoro_poly(5), every sorted triple of 4 and 3 generators
    tables = {
        "block(1, 6)": (block(1, 6), 30),
        "vir_semidirect_current(2/3, sl2)": (vir_semidirect_current(sc("2/3"), *sl2_constants()), 20),
        "current(sl2)": (current(*sl2_constants()), 10),
        "map_virasoro_poly(5)": (map_virasoro_poly(5), 14),
    }
    for name, (A, count) in tables.items():
        calls.clear()
        check_jacobi(A)
        assert len(calls) == count, name
        assert all(x <= y <= z for x, y, z in calls), name
    # skew fails on (1, 2): only the first two slots swap, where skew holds,
    # so the ten pairs (x, y) it does not derive call for every z
    calls.clear()
    check_jacobi(_corrupted(block(1, 4), (1, 2), 3, L * L))
    assert len(calls) == 50


def test_current_sl2_is_lambda_free_and_consistent():
    constants, labels = sl2_constants()
    A = current(constants, labels)
    assert check_skew(A).passed
    assert check_jacobi(A).passed
    for entry in A.table.values():
        for p in entry.values():
            assert p.degree_in("l") in (None, 0)


def test_jth_products():
    A = virasoro()
    L0 = A.gen(0)
    assert jth_product(A, L0, L0, 0).coords == {0: D}
    assert jth_product(A, L0, L0, 1).coords == {0: MultiPoly.const(2)}
    assert jth_product(A, L0, L0, 5).is_zero()


def test_jth_product_lands_in_grade_sum():
    B = block(1, 8)
    for i in range(3):
        for j in range(3):
            for n in range(3):
                result = jth_product(B, B.gen(i), B.gen(j), n)
                assert set(result.coords) <= {i + j}


def test_truncation_raises_and_skips():
    B = block(1, 4)
    with pytest.raises(TruncationExceeded):
        bracket(B, B.gen(3), B.gen(4))
    rep = check_jacobi(B)
    assert rep.passed
    assert rep.skipped


def test_builtins_pass_axioms_at_small_truncations():
    for n in (1, 2, 5, 10):
        for p in (1, 2, sc("1/2")):
            A = block(p, n)
            assert check_skew(A).passed and check_jacobi(A).passed
        V = map_virasoro_poly(n + 1)
        assert check_skew(V).passed and check_jacobi(V).passed


def test_a_repeated_generator_name_is_refused():
    # a spec refuses it too (specfile._names); a rendered witness would name two lines alike
    with pytest.raises(InvalidStructure, match="^generator 'e' is named twice$"):
        current(sl2_constants()[0], ("e", "e", "h"))
    with pytest.raises(InvalidStructure, match="^generator 'g' is named twice$"):
        ConformalAlgebra(("g", "g"), {})
    with pytest.raises(InvalidStructure, match="^generator 'L' is named twice$"):
        vir_semidirect_current(1, abelian_constants(1)[0], ("L",))


def test_block_zero_scaled_virasoro_remark():
    # p_{0,0} of the graded family is p*(d + 2l)
    B = block(2, 4)
    assert B.entry(0, 0) == {0: Scalar(2) * (D + 2 * L)}


def test_constructor_validation():
    with pytest.raises(InvalidStructure):
        block(0, 4)
    bad = [[[ONE]]]  # c_{0,0,0} = 1 breaks antisymmetry
    with pytest.raises(InvalidStructure):
        current(bad)
    noncomm = [
        [[Scalar(0), Scalar(0)], [Scalar(1), Scalar(0)]],
        [[Scalar(0), Scalar(0)], [Scalar(0), Scalar(0)]],
    ]
    with pytest.raises(InvalidStructure, match="^multiplication table must be commutative$"):
        map_virasoro(noncomm)
    nonassoc = [  # u0 u0 = u1 u1 = u0, u0 u1 = 0: (u1 u1) u0 = u0 but u1 (u1 u0) = 0
        [[Scalar(1), Scalar(0)], [Scalar(0), Scalar(0)]],
        [[Scalar(0), Scalar(0)], [Scalar(1), Scalar(0)]],
    ]
    with pytest.raises(InvalidStructure, match="^multiplication table must be associative$"):
        map_virasoro(nonassoc)
    no_unit = [[[Scalar(0)]]]  # x*x = 0 has no unit
    with pytest.raises(InvalidStructure, match="^multiplication table must have a unit$"):
        map_virasoro(no_unit)


def test_map_virasoro_quotient_square():
    # honest two-generator quotient: every nonzero bracket is (d+2l) times a line
    A = map_virasoro(truncated_polynomial_products(2))
    assert A.entry(0, 0) == {0: D + 2 * L}
    assert A.entry(0, 1) == {1: D + 2 * L}
    assert A.entry(1, 1) == {}
    assert check_skew(A).passed and check_jacobi(A).passed


def test_abelian_semidirect_any_twist():
    constants, labels = abelian_constants(2)
    A = vir_semidirect_current(sc("5"), constants, labels)
    assert check_skew(A).passed and check_jacobi(A).passed


def test_element_coordinates_must_be_translation_polynomials():
    with pytest.raises(InvalidStructure):
        AlgebraElement({0: L})


def _bracket_by_hand(A, x, y):
    """The sesquilinear extension written out pair by pair: the reference oracle."""
    out = {}
    for i, f in x.coords.items():
        f_shift = f.substitute("d", -L)
        for j, g in y.coords.items():
            factor = f_shift * g.substitute("d", D + L)
            for k, p in A.entry(i, j).items():
                out[k] = out.get(k, MultiPoly.zero()) + factor * p
    return {k: p for k, p in out.items() if not p.is_zero()}


def _jth_product_by_hand(A, x, y, j):
    fact = Scalar(factorial(j))
    return AlgebraElement(
        {k: p.coeff_of("l", j) * fact for k, p in _bracket_by_hand(A, x, y).items()}
    )


_d_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.just(0), st.just(0)), _gaussian, max_size=3
).map(MultiPoly)


def _elements(A):
    return st.dictionaries(st.integers(0, A.n_gens - 1), _d_polys, max_size=3).map(AlgebraElement)


def _or_skip(fn, *args):
    try:
        return fn(*args)
    except TruncationExceeded:
        return TruncationExceeded


@given(_skew_tables, st.data(), st.integers(0, 3))
def test_bracket_and_jth_product_match_the_loop_by_hand(A, data, j):
    # a pair beyond the truncation raises in both, or in neither
    x = data.draw(_elements(A))
    y = data.draw(_elements(A))
    assert _or_skip(bracket, A, x, y) == _or_skip(_bracket_by_hand, A, x, y)
    assert _or_skip(jth_product, A, x, y, j) == _or_skip(_jth_product_by_hand, A, x, y, j)


def test_negative_product_index_raises_before_the_bracket():
    # [L1 _l L1] lies beyond the truncation of block(1, 1): the index error
    # comes first, so no bracket was computed
    B = block(1, 1)
    with pytest.raises(TruncationExceeded):
        jth_product(B, B.gen(1), B.gen(1), 0)
    with pytest.raises(ValueError, match="nonnegative"):
        jth_product(B, B.gen(1), B.gen(1), -1)


# -- the golden text and the constant tables against the code they replaced ----


def _render_by_hand(coords, gens):
    """AlgebraElement.render and ConformalAlgebra.render_vector as they were written out."""
    if not coords:
        return "0"
    return " + ".join(f"({f.render()})*{gens[i]}" for i, f in sorted(coords.items()))


def _check_skew_by_hand(A):
    """check_skew with its witnesses written out as they were: one (p)*name per component."""
    report = Report("skew-symmetry")
    n = A.n_gens
    for i in range(n):
        for j in range(i, n):
            if not A.has_entry(i, j) or not A.has_entry(j, i):
                report.skip(f"skew({i},{j})", "beyond truncation")
                continue
            defects = _skew_defect(A, i, j)
            if defects:
                report.fail(f"skew({i},{j})", *(f"({p.render()})*{A.gens[k]}" for k, p in defects.items()))
            else:
                report.ok(f"skew({i},{j})")
    return report


_labels = st.lists(st.sampled_from(["L", "e", "x0", "g_1", "W"]), min_size=3, max_size=3, unique=True).map(tuple)


@st.composite
def _tables(draw):
    """A table on 1 to 3 generators whose entries are arbitrary, so skew mostly fails, or a
    truncated builtin whose checks include skips."""
    if draw(st.booleans()):
        return draw(st.sampled_from((block(sc("2/3") + I, 2), map_virasoro_poly(3))))
    n = draw(st.integers(1, 3))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    table = draw(st.dictionaries(pairs, st.dictionaries(st.integers(0, n - 1), _dl_polys, max_size=2)))
    return ConformalAlgebra(draw(_labels)[:n], table)


@given(_tables(), st.data())
def test_rendered_text_is_the_written_out_text(A, data):
    x = data.draw(_elements(A))
    assert x.render(A.gens) == _render_by_hand(x.coords, A.gens)
    vec = data.draw(st.dictionaries(st.integers(0, A.n_gens - 1), _dl_polys, max_size=3))
    assert A.render_vector(vec) == _render_by_hand(vec, A.gens)
    assert AlgebraElement({}).render(A.gens) == A.render_vector({}) == "0"
    assert check_skew(A).to_dict() == _check_skew_by_hand(A).to_dict()


def _current_by_hand(structure, labels=None):
    _validate_antisymmetric(structure)
    n = len(structure)
    if labels is None:
        labels = tuple(f"x{i}" for i in range(n))
    table = {}
    for i in range(n):
        for j in range(n):
            table[(i, j)] = {
                k: MultiPoly.const(_as_scalar(structure[i][j][k]))
                for k in range(n)
                if not _as_scalar(structure[i][j][k]).is_zero()
            }
    return ConformalAlgebra(labels, table)


def _vir_semidirect_current_by_hand(a, structure, labels=None):
    a = _as_scalar(a)
    _validate_antisymmetric(structure)
    n = len(structure)
    if labels is None:
        labels = tuple(f"x{i}" for i in range(n))
    gens = ("L",) + labels
    table = {(0, 0): {0: D + 2 * L}}
    act = D + a * L
    act_rev = (a - ONE) * D + a * L
    for i in range(n):
        table[(0, i + 1)] = {i + 1: act}
        table[(i + 1, 0)] = {i + 1: act_rev}
    for i in range(n):
        for j in range(n):
            table[(i + 1, j + 1)] = {
                k + 1: MultiPoly.const(_as_scalar(structure[i][j][k]))
                for k in range(n)
                if not _as_scalar(structure[i][j][k]).is_zero()
            }
    return ConformalAlgebra(gens, table)


def _same_algebra(A, B):
    # the tables in insertion order too, so every loop over A.table is unchanged
    assert A.gens == B.gens
    assert list(A.table.items()) == list(B.table.items())


@settings(max_examples=30)
@given(
    st.one_of(
        st.just(sl2_constants()),
        st.just(nonabelian2_constants()),
        st.integers(0, 4).map(abelian_constants),
        # the given labels, or the default x0, x1, ...
        st.one_of(st.just(sl2_constants()), st.just(nonabelian2_constants())).map(lambda c: (c[0], None)),
    ),
    _gaussian,
)
def test_constant_tables_are_the_ones_built_by_hand(constants, a):
    structure, labels = constants
    _same_algebra(current(structure, labels), _current_by_hand(structure, labels))
    _same_algebra(
        vir_semidirect_current(a, structure, labels), _vir_semidirect_current_by_hand(a, structure, labels)
    )
