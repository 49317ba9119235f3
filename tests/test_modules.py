from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from lieconformal.algebra import (
    ConformalAlgebra,
    block,
    check_jacobi,
    check_skew,
    jacobi_defect,
    map_virasoro_poly,
    skew_image,
    sl2_constants,
    vir_semidirect_current,
    virasoro,
)
from lieconformal.annihilation import module_action_n
from lieconformal.modules import (
    ConformalModule,
    InvalidParams,
    KernelResult,
    MissingAction,
    action_kernel,
    apply_action,
    apply_element_action,
    check_module,
    rank_one_theorem_module,
    rank_one_vir,
)
from lieconformal.poly import D, L, MultiPoly, divmod_univar
from lieconformal.reports import Report
from lieconformal.scalars import ONE, Scalar, ZERO, sc


def test_rank_one_vir_passes_module_axioms():
    A = virasoro()
    for a, b in ((2, 0), (0, 5), (1, 0), (sc("1/2"), sc(-1))):
        M = rank_one_vir(a, b)
        assert check_module(A, M).passed


def test_rank_one_vir_irreducibility_flag():
    assert rank_one_vir(2, 0).irreducible is True
    assert rank_one_vir(0, 5).irreducible is False
    assert rank_one_vir(1, 0).irreducible is True


def _generates_submodule(a, b, f) -> bool:
    """Oracle: the span of f(d)v over d-polynomials is closed under the action
    iff f(d) divides f(d+l)(d+al+b) coefficientwise in l."""
    action = D + a * L + MultiPoly.const(b)
    image = f.substitute("d", D + L) * action
    deg = image.degree_in("l") or 0
    for k in range(deg + 1):
        _, rem = divmod_univar(image.coeff_of("l", k), f)
        if not rem.is_zero():
            return False
    return True


def test_irreducibility_matches_bounded_submodule_search():
    # candidate generators f(d)v with deg f <= 3 over a small coefficient grid
    grid = [Scalar(x) for x in (-2, -1, 0, 1, 2)]
    for a, b in ((2, ZERO), (1, Scalar(3)), (sc("1/2"), Scalar(-1))):
        a = a if isinstance(a, Scalar) else Scalar(a)
        candidates = []
        for c0 in grid + [b, -b]:
            candidates.append(D + MultiPoly.const(c0))
            candidates.append((D + MultiPoly.const(c0)) ** 2)
            candidates.append((D + MultiPoly.const(c0)) ** 3)
            for c1 in grid:
                candidates.append(D * D + c1 * D + MultiPoly.const(c0))
        found = [f for f in candidates if _generates_submodule(a, b, f)]
        assert not found, f"unexpected submodule generators at a={a}"
    # reducible case: (d+b)v generates a proper submodule when a = 0
    for b in (Scalar(5), Scalar(0), Scalar(-3)):
        assert _generates_submodule(ZERO, b, D + MultiPoly.const(b))


def test_check_module_rejects_quadratic_action():
    A = virasoro()
    M = ConformalModule(("v",), {0: ((L * L,),)})
    rep = check_module(A, M)
    assert not rep.passed
    # hand expansion of the defect: l^2 m^2 terms cannot balance
    assert rep.failures[0].witnesses


def test_trivial_module_passes():
    A = block(1, 4)
    size = 2
    zero = tuple(tuple(MultiPoly.zero() for _ in range(size)) for _ in range(size))
    M = ConformalModule(("u", "w"), {i: zero for i in range(A.n_gens)})
    assert check_module(A, M).passed


def test_missing_action_raises():
    A = block(1, 3)
    M = ConformalModule(("v",), {0: ((D,),)})
    with pytest.raises(MissingAction):
        check_module(A, M)


def test_theorem_module_scaled_case():
    V = map_virasoro_poly(5)
    for t in (ZERO, ONE, sc("1/2")):
        M = rank_one_theorem_module(
            V, "a1=2", sc(1), sc("1/3"), coeffs=[t**i for i in range(1, 5)]
        )
        assert check_module(V, M).passed


def test_theorem_module_low_case_over_compatible_table():
    table = {
        (0, 0): {0: D + 2 * L},
        (0, 1): {1: D + L},
        (1, 0): {1: -(D + L).substitute("l", -L - D)},
    }
    A = ConformalAlgebra(("L0", "L1"), table, grades={0: 0, 1: 1}, truncation=1)
    for gamma in (ZERO, Scalar(3)):
        M = rank_one_theorem_module(A, "a1!=2", sc(1), sc("2/7"), gamma=gamma)
        rep = check_module(A, M)
        assert rep.passed
        assert rep.skipped  # the grade-two bracket is out of range, not assumed


def test_theorem_module_degenerate_case_only_grade_zero_acts():
    V = map_virasoro_poly(4)
    M = rank_one_theorem_module(V, "a1!=2", sc(1), ZERO, gamma=ZERO)
    assert not M.action(0)[0][0].is_zero()
    for i in range(1, 4):
        assert M.action(i)[0][0].is_zero()


def test_theorem_module_preconditions():
    V = map_virasoro_poly(3)
    with pytest.raises(InvalidParams):
        rank_one_theorem_module(V, "a1=2", ZERO, ZERO, coeffs=[ONE, ONE])
    with pytest.raises(InvalidParams):
        rank_one_theorem_module(V, "a1=2", ONE, ZERO, coeffs=[ONE])
    with pytest.raises(InvalidParams):
        rank_one_theorem_module(V, "a1!=2", ZERO, ZERO, gamma=ZERO)
    # gamma nonzero needs the grade-one l-coefficient to be 1; here it is 2
    with pytest.raises(InvalidParams):
        rank_one_theorem_module(V, "a1!=2", ONE, ZERO, gamma=ONE)
    with pytest.raises(InvalidParams):
        rank_one_theorem_module(V, "bogus", ONE, ZERO)
    with pytest.raises(InvalidParams):
        rank_one_theorem_module(virasoro(), "a1!=2", ONE, ZERO, gamma=ONE)


def test_action_kernel_scaled_module():
    V = map_virasoro_poly(4)
    M = rank_one_theorem_module(V, "a1=2", sc(1), ZERO, coeffs=[ONE] * 3)
    ker = action_kernel(V, M)
    assert ker.zero_generators == ()
    assert len(ker.combinations) == 3
    for k in range(1, 4):
        direction = [ZERO] * 4
        direction[0] = Scalar(-1)
        direction[k] = ONE
        assert ker.contains_direction(direction)
    assert not ker.contains_direction([ONE, ZERO, ZERO, ZERO])


def test_contains_direction_with_dependent_combinations():
    # (2, 0) repeats (1, 0), so the span is the first axis
    ker = KernelResult((), ((ONE, ZERO), (Scalar(2), ZERO)))
    assert ker.contains_direction((3, 0))
    assert not ker.contains_direction((0, 1))


def test_action_kernel_faithful_and_trivial():
    A = virasoro()
    M = rank_one_vir(2, 0)
    ker = action_kernel(A, M)
    assert ker.zero_generators == () and ker.combinations == ()
    B = block(1, 2)
    zero = ((MultiPoly.zero(),),)
    T = ConformalModule(("v",), {i: zero for i in range(B.n_gens)})
    ker2 = action_kernel(B, T)
    assert ker2.zero_generators == (0, 1, 2)
    assert len(ker2.combinations) == 3


def test_rank_two_module_over_semidirect_twist():
    # the weighted line tensored with the standard 2-dim representation:
    # L acts by (d + delta*l + c) I, each Lie generator by its rep matrix
    from lieconformal.algebra import sl2_constants, vir_semidirect_current

    constants, labels = sl2_constants()
    A = vir_semidirect_current(1, constants, labels)
    delta, c = sc("3/2"), sc("1/4")
    line = D + delta * L + MultiPoly.const(c)
    zero = MultiPoly.zero()
    one = MultiPoly.one()
    rep = {
        # e, f, h in the basis (u1, u2), columnwise action
        1: ((zero, one), (zero, zero)),
        2: ((zero, zero), (one, zero)),
        3: ((one, zero), (zero, -one)),
    }
    actions = {0: ((line, zero), (zero, line))}
    actions.update(rep)
    M = ConformalModule(("u1", "u2"), actions)
    assert check_module(A, M).passed
    # breaking the representation property must surface as a module defect
    bad = dict(actions)
    bad[3] = ((one, zero), (zero, one))
    assert not check_module(A, ConformalModule(("u1", "u2"), bad)).passed


def test_weight_spaces_with_nonzero_virasoro_index():
    from lieconformal.annihilation import weight_spaces

    a, b = Scalar(2), Scalar(1)
    line = D + a * L + MultiPoly.const(b)
    zero = ((MultiPoly.zero(),),)
    M = ConformalModule(("v",), {0: zero, 1: ((line,),)})
    reports = weight_spaces(M, 3, virasoro_gen=1)
    assert [w.weight for w in reports] == [a + Scalar(k) for k in range(4)]


def test_element_action_is_lambda_substituted():
    M = rank_one_vir(2, 0)
    vec = [MultiPoly.one()]
    direct = apply_action(M, 0, vec)
    via_element = apply_element_action(M, {0: D}, vec)
    assert via_element == [-L * p for p in direct]


def _module_report(status, counts, checks):
    """A check_module report dict from (id, status, witnesses) triples."""
    return {
        "title": "module axioms",
        "status": status,
        "counts": dict(zip(("pass", "fail", "skipped"), counts)),
        "checks": [
            {"id": cid, "status": status, "witnesses": list(witnesses)}
            for cid, status, witnesses in checks
        ],
    }


_SPOTS = [(f"sesquilinearity-spot({t})", "pass", ()) for t in range(4)]


def test_check_module_reports_are_pinned():
    # full reports, witness text and order included, on a failing rank-two
    # module, a rank-one module with failures and truncation skips, and a
    # passing module
    rank_two = ConformalModule(
        ("u0", "u1"), {0: ((D + 2 * L, L * L), (MultiPoly.one(), D + L))}
    )
    assert check_module(virasoro(), rank_two).to_dict() == _module_report(
        "fail",
        (4, 1, 0),
        [(
            "module(0,0)",
            "fail",
            (
                "defect on u0 -> u0: l^2 - m^2",
                "defect on u0 -> u1: -l + m",
                "defect on u1 -> u0: -2*l^2*m + 2*l*m^2",
                "defect on u1 -> u1: -l^2 + m^2",
            ),
        )] + _SPOTS,
    )

    A = block(1, 3)
    line = ConformalModule(
        ("v",),
        {0: ((D + L,),), 1: ((MultiPoly.one(),),), 2: ((L,),), 3: ((MultiPoly.zero(),),)},
    )
    beyond = ("beyond truncation",)
    assert check_module(A, line).to_dict() == _module_report(
        "fail",
        (9, 5, 6),
        [
            ("module(0,0)", "pass", ()),
            ("module(0,1)", "fail", ("defect on v -> v: -2*l",)),
            ("module(0,2)", "fail", ("defect on v -> v: -3*l^2 - 2*l*m",)),
            ("module(0,3)", "pass", ()),
            ("module(1,0)", "fail", ("defect on v -> v: 2*m",)),
            ("module(1,1)", "fail", ("defect on v -> v: -2*l^2 + 2*m^2",)),
            ("module(1,2)", "pass", ()),
            ("module(1,3)", "skipped", beyond),
            ("module(2,0)", "fail", ("defect on v -> v: 2*l*m + 3*m^2",)),
            ("module(2,1)", "pass", ()),
            ("module(2,2)", "skipped", beyond),
            ("module(2,3)", "skipped", beyond),
            ("module(3,0)", "pass", ()),
            ("module(3,1)", "skipped", beyond),
            ("module(3,2)", "skipped", beyond),
            ("module(3,3)", "skipped", beyond),
        ] + _SPOTS,
    )

    assert check_module(virasoro(), rank_one_vir(2, 0)).to_dict() == _module_report(
        "pass", (5, 0, 0), [("module(0,0)", "pass", ())] + _SPOTS
    )


_gaussian = st.builds(
    lambda n, m, q: Scalar(Fraction(n, q), Fraction(m, q)),
    st.integers(-9, 9), st.integers(-6, 6), st.integers(1, 4),
)
_dl_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0)), _gaussian, max_size=3
).map(MultiPoly)
_d_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.just(0), st.just(0)), _gaussian, max_size=3
).map(MultiPoly)


@st.composite
def _actions(draw):
    """A module of rank 1 to 3 over 1 to 3 generators, a generator, an
    element of the algebra and a vector of the module.

    The action needs no module axiom, so the matrices are arbitrary.
    """
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    actions = {i: [[draw(_dl_polys) for _ in range(m)] for _ in range(m)] for i in range(n)}
    M = ConformalModule(tuple(f"v{r}" for r in range(m)), actions)
    gens = st.integers(0, n - 1)
    coords = {draw(gens): draw(_d_polys) for _ in range(draw(st.integers(0, 3)))}
    return M, draw(gens), coords, [draw(_d_polys) for _ in range(m)]


def _apply_action_by_hand(M, gen, vec):
    """g _l (sum_j f_j(d) v_j) = sum_j f_j(d+l) (g _l v_j), column by column: the oracle."""
    mat = M.action(gen)
    out = [MultiPoly.zero()] * M.rank
    for j, f in enumerate(vec):
        f_shift = f.substitute("d", D + L)
        for k in range(M.rank):
            out[k] = out[k] + f_shift * mat[k][j]
    return out


def _apply_element_action_by_hand(M, coords, vec):
    out = [MultiPoly.zero()] * M.rank
    for i, f in coords.items():
        part = _apply_action_by_hand(M, i, vec)
        for k in range(M.rank):
            out[k] = out[k] + f.substitute("d", -L) * part[k]
    return out


def _module_action_n_by_hand(M, gen, n, vec):
    fact = Scalar(factorial(n))
    return [p.coeff_of("l", n) * fact for p in _apply_action_by_hand(M, gen, vec)]


@given(_actions(), st.integers(0, 3))
def test_actions_match_the_loops_by_hand(action, n):
    M, gen, coords, vec = action
    assert apply_action(M, gen, vec) == _apply_action_by_hand(M, gen, vec)
    assert apply_element_action(M, coords, vec) == _apply_element_action_by_hand(M, coords, vec)
    assert module_action_n(M, gen, n, vec) == _module_action_n_by_hand(M, gen, n, vec)


def _block_with_broken_skew():
    """block(1, 3) with l^2 added to p_{1,2}: skew fails on the pair (1, 2) alone."""
    A = block(1, 3)
    table = {pair: dict(vec) for pair, vec in A.table.items()}
    table[(1, 2)][3] = table[(1, 2)][3] + L * L
    return ConformalAlgebra(A.gens, table, grades=A.grades, truncation=A.truncation)


_module_tables = st.one_of(
    st.builds(block, _gaussian.filter(lambda p: not p.is_zero()), st.integers(1, 3)),
    st.builds(map_virasoro_poly, st.integers(1, 3)),
    _gaussian.map(lambda a: vir_semidirect_current(a, *sl2_constants())),
    st.just(_block_with_broken_skew()),
)


def _check_module_by_hand(A, M):
    """check_module's pair checks from jacobi_defect on every pair, with no mirror: the oracle."""
    n, m = A.n_gens, M.rank

    def entry(i, j):
        return A.entry(i, j) if j < n else {n + r: p for r, p in M.column(i, j - n).items()}

    report = Report("module axioms")
    for x in range(n):
        for y in range(n):
            if not A.has_entry(x, y):
                report.skip(f"module({x},{y})", "beyond truncation")
                continue
            witnesses = []
            for c in range(m):
                defect = jacobi_defect(entry, x, y, n + c)
                witnesses += [
                    f"defect on {M.basis[c]} -> {M.basis[r]}: {defect[n + r].render()}"
                    for r in range(m)
                    if n + r in defect
                ]
            if witnesses:
                report.fail(f"module({x},{y})", *witnesses)
            else:
                report.ok(f"module({x},{y})")
    return report


@given(_module_tables, st.data())
def test_check_module_matches_the_direct_defects(A, data):
    # arbitrary actions mostly fail, so the mirrored defects of the skew
    # pairs are compared witness by witness
    m = data.draw(st.integers(1, 2))
    actions = {
        i: [[data.draw(_dl_polys) for _ in range(m)] for _ in range(m)] for i in range(A.n_gens)
    }
    M = ConformalModule(tuple(f"v{r}" for r in range(m)), actions)
    report = check_module(A, M)
    expected = _check_module_by_hand(A, M)
    # the sesquilinearity spot checks follow the pairs and are not under test here
    expected.checks += report.checks[A.n_gens**2:]
    assert report.to_dict() == expected.to_dict()


def test_missing_action_raises_on_every_vector():
    M = ConformalModule(("u", "w"), {0: ((D, L), (L, D))})
    for vec in ([MultiPoly.zero()] * 2, [D, MultiPoly.one()]):
        with pytest.raises(MissingAction):
            apply_action(M, 1, vec)
        with pytest.raises(MissingAction):
            apply_element_action(M, {1: D}, vec)
        with pytest.raises(MissingAction):
            module_action_n(M, 1, 1, vec)


def test_negative_action_index_raises_before_the_action():
    # generator 1 has no action matrix: the index error comes first
    M = rank_one_vir(2, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        module_action_n(M, 1, -1, [MultiPoly.one()])


def test_each_skew_pair_is_compared_once_per_algebra(monkeypatch):
    # check_skew, check_jacobi's and check_module's pair loops all ask for
    # the skew defect of the same pairs: the algebra keeps each answer, so
    # only check_skew computes skew images, and every report equals the one
    # checks on a fresh copy of the algebra give
    def build():
        A = _block_with_broken_skew()
        return A, rank_one_theorem_module(A, "a1!=2", sc(1), sc("2/7"))

    A, M = build()
    expected = [check_skew(A).to_dict(), check_jacobi(A).to_dict(), check_module(A, M).to_dict()]
    images = []
    monkeypatch.setattr("lieconformal.algebra.skew_image", lambda p: images.append(p) or skew_image(p))
    A, M = build()
    reports = [check_skew(A).to_dict()]
    compared = len(images)
    reports += [check_jacobi(A).to_dict(), check_module(A, M).to_dict()]
    assert compared > 0 and len(images) == compared
    assert reports == expected
    assert expected[0]["counts"]["fail"] == 1
