import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import lpa.center
from lpa.center import (
    OracleBoundError,
    a_class,
    basis_zero,
    _oracle_candidates,
    _oracle_matrix,
    _rref,
    center_report,
    check_oracle_bound,
    extended_centroid_report,
    kernel_basis,
    oracle_commutant,
    required_oracle_bound,
    same_span,
    verify_basis,
)
from lpa.classify import x_decomposition
from lpa.engine import AlgebraElement, LeavittAlgebra, sort_key
from lpa.fields import QQ, PrimeField
from lpa.graphs import Edge, Graph
from lpa.randomgen import random_graph
from corpus import FIXTURE_NAMES, graph
from test_reachability import counted
from references import (
    chained_graphs,
    cycle_with_tail,
    dense_graphs,
    disjoint_union,
    generators,
    monomial_element,
    parse_coefficient,
    plain_monomial,
    ref_kernel_basis,
    ref_normal_monomials,
    ref_oracle_candidates,
    ref_oracle_matrix,
    ref_rref,
    ref_same_span,
    renamed,
    rose,
    sparse,
)


def alg_of(name):
    return LeavittAlgebra(graph(name))


def center_of(alg):
    return center_report(alg, x_decomposition(alg.graph))


def basis_zero_of(alg):
    return basis_zero(alg, x_decomposition(alg.graph))


# -- a_class ------------------------------------------------------------------


def test_a_class_toeplitz_is_unit():
    alg = alg_of("g_toeplitz")
    rep = x_decomposition(alg.graph)
    (xc,) = rep.x_f
    b = a_class(alg, xc)
    assert b.element == alg.vertex("u") + alg.vertex("v") == alg.one()
    assert alg.is_central(b.element).central


def test_a_class_loop():
    alg = alg_of("g_loop")
    (xc,) = x_decomposition(alg.graph).x_f
    assert a_class(alg, xc).element == alg.vertex("v")


def test_a_class_line3():
    alg = alg_of("g_line3")
    (xc,) = x_decomposition(alg.graph).x_f
    assert a_class(alg, xc).element == alg.one()


# -- basis_zero ----------------------------------------------------------------


def test_basis_zero_loop():
    alg = alg_of("g_loop")
    (b,) = basis_zero_of(alg)
    assert b.element == alg.vertex("v")


def test_basis_zero_cwe():
    alg = alg_of("g_cwe")
    (b,) = basis_zero_of(alg)
    assert b.element == alg.vertex("w") + alg.vertex("z")


def test_basis_zero_disjoint_loops():
    g = disjoint_union(graph("g_loop"), graph("g_loop"))
    alg = LeavittAlgebra(g)
    bs = basis_zero_of(alg)
    assert len(bs) == 2
    assert {b.element for b in bs} == {alg.vertex("v"), alg.vertex("v'")}


def test_basis_zero_orthogonal_idempotents():
    g = disjoint_union(graph("g_loop"), graph("g_toeplitz"))
    alg = LeavittAlgebra(g)
    bs = basis_zero_of(alg)
    for i, a in enumerate(bs):
        assert a.element * a.element == a.element
        for b in bs[i + 1:]:
            assert not (a.element * b.element)


# -- nonzero-degree basis ----------------------------------------------------


def test_basis_n_loop_powers():
    alg = alg_of("g_loop")
    c = alg.edge("c")
    bn = center_of(alg).basis_nonzero
    assert list(bn) == [-2, -1, 1, 2]
    (b2,) = bn[2]
    assert b2.element == c * c and b2.power == 2
    (bm1,) = bn[-1]
    assert bm1.element == alg.ghost("c") and bm1.power == -1


def test_basis_n_cwe_empty():
    assert center_of(alg_of("g_cwe")).basis_nonzero == {}


def test_basis_n_negative_is_involution():
    # S is empty on the Toeplitz graph (loop e has an exit): no
    # nonzero-degree basis at all
    assert center_of(alg_of("g_toeplitz")).basis_nonzero == {}
    g = disjoint_union(cycle_with_tail(2), cycle_with_tail(3))
    alg = LeavittAlgebra(g)
    bn = center_of(alg).basis_nonzero
    assert list(bn) == [-6, -4, -3, -2, 2, 3, 4, 6]
    for n in (2, 3, 4, 6):
        assert [b.cycle_base for b in bn[n]] == [b.cycle_base for b in bn[-n]]
        for b, bm in zip(bn[n], bn[-n]):
            assert bm.element == alg.involution(b.element)
            assert (bm.degree, bm.power) == (-b.degree, -b.power)


def test_basis_n_homogeneous_and_central():
    g = disjoint_union(graph("g_loop"), graph("g_line3"))
    alg = LeavittAlgebra(g)
    bn = center_of(alg).basis_nonzero
    assert list(bn) == [-2, -1, 1, 2]
    for n, bs in bn.items():
        for b in bs:
            for m in b.element.terms:
                assert len(m[1]) - len(m[3]) == n
            assert alg.is_central(b.element).central


def test_center_report_computes_each_cycle_once():
    # C_14 has one cycle in S and the default window is 28, so its basis has
    # elements at degrees -28, -14, 14 and 28, all dressed with the same
    # F_E(c^0), which is found once
    g = cycle_with_tail(14)
    rep = x_decomposition(g)
    alg = LeavittAlgebra(g)
    calls = []
    entry_paths = lpa.center.entry_paths

    def counting(*args):
        calls.append(args)
        return entry_paths(*args)

    with mock.patch.object(lpa.center, "entry_paths", counting):
        bn = center_report(alg, rep).basis_nonzero
    assert list(bn) == [-28, -14, 14, 28]
    assert len(calls) == 1
    for n in (14, 28):
        assert bn[-n][0].element == alg.involution(bn[n][0].element)


def test_center_report_builds_paths_only_for_normal_form(monkeypatch):
    """On a sparse 100-vertex graph with entry paths and a Laurent basis,
    the basis builders make their raw terms from the graph's edge table, so
    no path is validated before `normal_form` checks it: the graph's
    `path_range` runs only inside `normal_form`."""
    g = sparse(2)
    rep = x_decomposition(g)
    alg = LeavittAlgebra(g)
    inside, outside = [0], []
    normal_form = LeavittAlgebra.normal_form

    def tracked(self, raw_terms):
        inside[0] += 1
        try:
            return normal_form(self, raw_terms)
        finally:
            inside[0] -= 1

    def watched(fn, calls):
        def call(*args):
            (calls if inside[0] else outside).append(args)
            return fn(*args)

        return call

    checked = []
    monkeypatch.setattr(LeavittAlgebra, "normal_form", tracked)
    monkeypatch.setattr(Graph, "path_range", watched(Graph.path_range, checked))
    center = center_report(alg, rep)
    assert center.basis_nonzero and any(xc.entry.paths for xc in rep.x_f)
    assert checked and outside == []


# -- center report ----------------------------------------------------------------


def test_center_report_fixture_iso_types():
    expected = {
        "g_loop": {"K": 0, "Laurent": 1},
        "g_line3": {"K": 1, "Laurent": 0},
        "g_toeplitz": {"K": 1, "Laurent": 0},
        "g_r2": {"K": 1, "Laurent": 0},
        "g_ext2": {"K": 1, "Laurent": 0},
        "g_cwe": {"K": 1, "Laurent": 0},
    }
    for name, iso in expected.items():
        rep = center_of(alg_of(name))
        assert rep.iso_type == iso, name


def test_center_report_cwe_divergence_flag():
    rep = center_of(alg_of("g_cwe"))
    assert len(rep.divergence_flags) == 1
    assert not center_of(alg_of("g_loop")).divergence_flags


def test_center_report_disjoint_loops_is_laurent_squared():
    g = disjoint_union(graph("g_loop"), graph("g_loop"))
    rep = center_of(LeavittAlgebra(g))
    assert rep.iso_type == {"K": 0, "Laurent": 2}


def test_verify_basis_all_pass():
    alg = alg_of("g_loop")
    rep = center_of(alg)
    elems = list(rep.basis_zero)
    for es in rep.basis_nonzero.values():
        elems.extend(es)
    assert elems
    for _label, res in verify_basis(alg, elems):
        assert res.central


# -- extended centroid -------------------------------------------------------------


def test_extended_centroid_examples():
    def centroid(name):
        g = graph(name)
        return extended_centroid_report(g, x_decomposition(g))

    r = centroid("g_line3")
    assert (r.sinks, r.no_exit_cycles, r.extreme_classes) == (1, 0, 0)
    r = centroid("g_loop")
    assert (r.sinks, r.no_exit_cycles, r.extreme_classes) == (0, 1, 0)
    r = centroid("g_ext2")
    assert (r.sinks, r.no_exit_cycles, r.extreme_classes) == (0, 0, 1)
    assert "not independently verified" in r.note


# -- commutant oracle ---------------------------------------------------------------


def test_oracle_line3_degree_zero():
    alg = alg_of("g_line3")
    basis = oracle_commutant(alg, 0, 4)
    assert len(basis) == 1
    assert same_span(alg, basis, [alg.one()])


def test_oracle_loop_degree_one():
    alg = alg_of("g_loop")
    basis = oracle_commutant(alg, 1, 3)
    assert same_span(alg, basis, [alg.edge("c")])


def test_oracle_cwe_degree_one_is_zero_space():
    alg = alg_of("g_cwe")
    assert oracle_commutant(alg, 1, 4) == []


def test_oracle_agrees_with_basis_on_fixtures():
    for name in ("g_loop", "g_line3", "g_toeplitz", "g_r2", "g_ext2", "g_cwe"):
        alg = alg_of(name)
        rep = center_of(alg)
        by_degree = {0: list(rep.basis_zero)}
        for n, es in rep.basis_nonzero.items():
            by_degree.setdefault(n, []).extend(es)
        for n in sorted(set(by_degree) | {0, 1, -1}):
            elems = by_degree.get(n, [])
            bound = required_oracle_bound(elems)
            comm = oracle_commutant(alg, n, bound)
            assert same_span(alg, [b.element for b in elems], comm), (name, n)


def unpruned_commutant(alg, degree, max_len):
    """Kernel over every normal monomial, with the reference enumeration,
    rows from the reference commutator and the reference elimination."""
    cands = ref_normal_monomials(alg, degree, max_len)
    rows: dict[tuple, dict] = {}
    for j, m in enumerate(cands):
        elem = AlgebraElement(alg, {m: 1})
        for i, (_label, gen) in enumerate(generators(alg)):
            for mm, k in alg.commutator(elem, gen).terms.items():
                rows.setdefault((i, mm), {})[j] = k
    vecs = ref_kernel_basis(list(rows.values()), len(cands), alg.field)
    return [AlgebraElement(alg, {cands[j]: k for j, k in v.items()}) for v in vecs]


R3 = rose(3)


@pytest.mark.parametrize(
    "g, field",
    [(graph(name), QQ) for name in FIXTURE_NAMES] + [(R3, QQ), (R3, PrimeField(7))],
    ids=FIXTURE_NAMES + ["R3-q", "R3-p7"],
)
def test_oracle_pruning_keeps_kernel(g, field):
    alg = LeavittAlgebra(g, field)
    for n in range(-2, 3):
        assert oracle_commutant(alg, n, 4) == unpruned_commutant(alg, n, 4), n


def test_oracle_bound_check():
    alg = alg_of("g_line3")
    elems = basis_zero_of(alg)
    with pytest.raises(OracleBoundError):
        check_oracle_bound(elems, 1)
    check_oracle_bound(elems, 2)  # no error


def test_same_span_detects_difference():
    alg = alg_of("g_line3")
    assert not same_span(alg, [alg.vertex("v1")], [alg.vertex("v2")])
    assert same_span(alg, [alg.vertex("v1").scale(3)], [alg.vertex("v1")])


# -- exact elimination against the global-pivot reference -----------------------

F7 = PrimeField(7)
F2 = PrimeField(2)


def coerced(rows, field):
    """Rows as field values in the one form of `lpa.fields`: the int rows of
    _oracle_matrix, where -1 stands for p - 1 over F_p, in the form the
    reference's commutators hold, and the reference RREF's Fractions as
    ints where integral."""
    return [{c: field.coerce(k) for c, k in row.items()} for row in rows]


def multiset(rows):
    return Counter(tuple(sorted(row.items())) for row in rows)


def assert_matches_reference(alg, degree, max_len):
    """_oracle_matrix against the unpruned reference matrix.  The kept
    candidates come in the reference's order.  Each dropped one is at the
    top length, |m| + 2 > L, and has a one-entry row in the reference that
    is nonzero in the field.  The rows are the reference rows restricted to
    the kept columns, less the rows that leaves empty; they come out in
    another order, so they are compared as a multiset, and in
    characteristic 2 the signs of the int rows collapse.  The kernel basis
    is the reference matrix's, so the kernels are equal."""
    field = alg.field
    cands, rows = _oracle_matrix(alg, degree, max_len)
    ref_cands, ref_rows = ref_oracle_matrix(alg, degree, max_len)
    col = {m: j for j, m in enumerate(cands)}
    assert cands == [m for m in ref_cands if m in col]
    assert all(type(k) is int for row in rows for k in row.values())
    units = {j for row in ref_rows if len(row) == 1 for j, k in row.items() if k}
    for j, m in enumerate(ref_cands):
        if m not in col:
            assert len(m[1]) + len(m[3]) + 2 > max_len, m
            assert j in units, m
    kept = [col.get(m) for m in ref_cands]
    restricted = [
        {kept[j]: k for j, k in row.items() if kept[j] is not None} for row in ref_rows
    ]
    assert multiset(coerced(rows, field)) == multiset(row for row in restricted if row)
    ref_index = {m: j for j, m in enumerate(ref_cands)}
    kernel = [
        {ref_index[cands[c]]: k for c, k in vec.items()}
        for vec in kernel_basis(rows, len(cands), field)
    ]
    assert kernel == kernel_basis(ref_rows, len(ref_cands), field)


@given(st.integers(0, 10**6), st.integers(-2, 2), st.integers(0, 4), st.sampled_from([QQ, F7, F2]))
@settings(max_examples=120, deadline=None)
def test_oracle_matrix_matches_reference(seed, degree, max_len, field):
    rng = random.Random(seed)
    alg = LeavittAlgebra(renamed(random_graph(rng, 4, 6), rng), field)
    assert_matches_reference(alg, degree, max_len)


@given(
    st.integers(0, 10**6) | st.integers(1, 3).map(lambda n: -n),
    st.integers(0, 5),
    st.sampled_from([QQ, F7, F2]),
)
@settings(max_examples=50, deadline=None)
def test_oracle_drops_only_forced_candidates(seed, max_len, field):
    # a nonnegative seed draws a renamed random graph, -n is the rose R_n;
    # every degree the bound admits is checked
    if seed < 0:
        g = rose(-seed)
    else:
        rng = random.Random(seed)
        g = renamed(random_graph(rng, 4, 5), rng)
    alg = LeavittAlgebra(g, field)
    for degree in range(-max_len, max_len + 1):
        assert_matches_reference(alg, degree, max_len)


def test_oracle_keeps_the_special_edge_exception():
    # on the 2-cycle u <-> v the candidates of degree 2 at L = 2 are e f and
    # f e, at the top length with trivial beta.  Each vertex's only in-edge
    # is special at its source, so e* acting on e f is the range-relation
    # rewrite and forces nothing; a rule without that exception drops both
    # and finds no central element.
    g = Graph(["u", "v"], [Edge("e", "u", "v"), Edge("f", "v", "u")])
    alg = LeavittAlgebra(g)
    assert [repr(x) for x in oracle_commutant(alg, 2, 2)] == ["1·e f + 1·f e"]


def assert_candidates_match_reference(g, max_len):
    # every degree the bound admits, and one on each side beyond it
    alg = LeavittAlgebra(g)
    for degree in range(-max_len - 1, max_len + 2):
        got = _oracle_candidates(alg, degree, max_len)
        assert got == ref_oracle_candidates(alg, degree, max_len), (degree, max_len)


def renamed_random_graphs():
    def draw(seed):
        rng = random.Random(seed)
        return renamed(random_graph(rng, 4, 6), rng)

    return st.integers(0, 10**6).map(draw)


@pytest.mark.parametrize("max_len", range(7))
@pytest.mark.parametrize("n", range(1, 6))
def test_oracle_candidates_match_reference_on_roses(n, max_len):
    assert_candidates_match_reference(rose(n), max_len)


# dense graphs draw up to 7 edges rather than 12: one vertex with 12 loops
# has 12^6 normal monomials of degree 0 at L = 6 for the reference to sort
@given(
    renamed_random_graphs() | chained_graphs() | dense_graphs(max_edges=7),
    st.integers(0, 6),
)
@settings(max_examples=60, deadline=None)
def test_oracle_candidates_match_reference(g, max_len):
    assert_candidates_match_reference(g, max_len)


def test_oracle_keeps_ten_thousand_candidates_on_r10():
    # R_10 at degree 0 and L = 6: of the 10^6 normal monomials, the 10^6 -
    # 10^4 with |alpha| = |beta| = 3 are forced to 0; the 1 + 99 + 9,900
    # with |alpha| = |beta| <= 2 are kept (e1 is special, so the pairs that
    # both end in e1 are not normal)
    assert len(_oracle_candidates(LeavittAlgebra(rose(10)), 0, 6)) == 10_000


def test_every_monomial_is_a_plain_tuple(fixture_graphs, campaign100):
    """The one form of a monomial, wherever the two checks read one: every
    term of every basis element, of every nonzero commutator of a
    generator and of every oracle kernel element, and every oracle
    candidate, is the plain 4-tuple (s(alpha), alpha, s(beta), beta)."""
    for g in [*fixture_graphs.values(), *campaign100]:
        alg = LeavittAlgebra(g)
        rep = center_report(alg, x_decomposition(g), degree_window=2)
        by_degree = {0: list(rep.basis_zero), **rep.basis_nonzero}
        elements = [b.element for bs in by_degree.values() for b in bs]
        for _, gen in generators(alg):
            elements += alg.commutators(gen).values()
        candidates = []
        for n in range(-2, 3):
            bound = required_oracle_bound(by_degree.get(n, ()))
            elements += oracle_commutant(alg, n, bound)
            candidates += _oracle_candidates(alg, n, bound)
        assert all(plain_monomial(m) for x in elements for m in x.terms), g.to_document()
        assert all(plain_monomial(m) for m in candidates), g.to_document()


@pytest.mark.parametrize(
    "g", [graph("g_line3"), graph("g_r2"), R3, cycle_with_tail(3)], ids=["g_line3", "g_r2", "R3", "C3"]
)
def test_oracle_calls_no_reference_enumeration(monkeypatch, g):
    alg = LeavittAlgebra(g)
    expected = [oracle_commutant(alg, n, 5) for n in range(-3, 4)]
    assert any(expected)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not call the reference enumeration")

    monkeypatch.setattr(LeavittAlgebra, "normal_monomials", refuse)
    monkeypatch.setattr(LeavittAlgebra, "enumerate_paths", refuse)
    assert [oracle_commutant(alg, n, 5) for n in range(-3, 4)] == expected


# -- the oracle's path tables, kept on the algebra ---------------------------------


@st.composite
def solve_orders(draw):
    """(degree, bound) pairs in a shuffled order: every pair comes with its
    negated degree, and the first pair is solved twice."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), min_size=1, max_size=4))
    solves = pairs + [(-d, max_len) for d, max_len in pairs] + pairs[:1]
    return draw(st.permutations(solves))


def assert_one_algebra_serves(g, field, solves):
    """One algebra solves every (degree, bound) in turn, sharing its tables;
    each solve equals the references on a fresh algebra."""
    alg = LeavittAlgebra(g, field)
    for degree, max_len in solves:
        fresh = LeavittAlgebra(g, field)
        cands, rows = _oracle_matrix(alg, degree, max_len)
        assert cands == ref_oracle_candidates(fresh, degree, max_len), (degree, max_len)
        assert_matches_reference(alg, degree, max_len)
        kernel = kernel_basis(rows, len(cands), field)
        assert kernel == ref_kernel_basis(rows, len(cands), field)
    # a degree beyond its bound has no candidates and reads no table
    assert (alg._oracle_tables is None) == all(abs(d) > max_len for d, max_len in solves)


@given(
    renamed_random_graphs() | chained_graphs() | dense_graphs(max_edges=7),
    st.sampled_from([QQ, F7, F2]),
    solve_orders(),
)
@settings(max_examples=60, deadline=None)
def test_oracle_tables_serve_any_order_of_solves(g, field, solves):
    assert_one_algebra_serves(g, field, solves)


@pytest.mark.parametrize("field", [QQ, F7, F2], ids=["q", "p7", "p2"])
@pytest.mark.parametrize("n", range(1, 6))
def test_oracle_tables_serve_any_order_of_solves_on_roses(n, field):
    solves = [(0, 4), (2, 4), (-1, 3), (0, 2), (-2, 4), (1, 3), (0, 4), (3, 3), (-3, 3), (0, 0)]
    assert_one_algebra_serves(rose(n), field, random.Random(n).sample(solves, len(solves)))


def test_oracle_tables_are_built_once_per_algebra(monkeypatch):
    # k = 8 solves on each of two algebras of one graph, the bound rising and
    # falling: two builds, one per algebra, and the layers grow on demand
    built = []
    init = lpa.center._OracleTables.__init__
    monkeypatch.setattr(lpa.center._OracleTables, "__init__", counted(built, init))
    g = cycle_with_tail(3)
    algs = [LeavittAlgebra(g), LeavittAlgebra(g, F7)]
    for alg in algs:
        assert alg._oracle_tables is None
        depths = []
        for degree, max_len in [(0, 2), (3, 3), (-3, 3), (0, 6), (1, 5), (0, 2), (-1, 5), (3, 9)]:
            oracle_commutant(alg, degree, max_len)
            depths.append(len(alg._oracle_tables.layers))
        assert depths == [2, 4, 4, 4, 4, 4, 4, 7]
    assert [args[1] for args in built] == algs


def test_oracle_tables_stop_at_the_longest_path():
    # L_3 has no path longer than 2: a bound of 10^5 builds three layers
    alg = LeavittAlgebra(graph("g_line3"))
    far = oracle_commutant(alg, 0, 10**5)
    assert [x.terms for x in far] == [x.terms for x in oracle_commutant(alg, 0, 4)]
    assert len(alg._oracle_tables.layers) == 3 and alg._oracle_tables.exhausted


@given(st.integers(0, 10**6), st.integers(-2, 2), st.integers(0, 4), st.sampled_from([QQ, F7]))
@settings(max_examples=80, deadline=None)
def test_kernel_basis_matches_reference(seed, degree, max_len, field):
    rng = random.Random(seed)
    alg = LeavittAlgebra(renamed(random_graph(rng, 4, 6), rng), field)
    cands, rows = _oracle_matrix(alg, degree, max_len)
    ref = ref_kernel_basis(rows, len(cands), field)
    assert kernel_basis(rows, len(cands), field) == ref


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "p7"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_kernel_basis_matches_reference_on_roses(n, field):
    alg = LeavittAlgebra(rose(n), field)
    for degree in range(-2, 3):
        cands, rows = _oracle_matrix(alg, degree, 4)
        got = kernel_basis(rows, len(cands), field)
        assert got == ref_kernel_basis(rows, len(cands), field), degree


def random_span(alg, rng, coefficient):
    paths = alg.enumerate_paths(2)
    out = []
    for _ in range(rng.randint(0, 4)):
        x = alg.zero()
        for _ in range(rng.randint(1, 3)):
            a = rng.choice(paths)
            b = rng.choice([p for p in paths if alg.path_range(p) == alg.path_range(a)])
            x = x + monomial_element(alg, a, b, coefficient(rng))
        out.append(x)
    return out


@given(st.integers(0, 10**6), st.sampled_from([QQ, F7]))
@settings(max_examples=150, deadline=None)
def test_same_span_matches_reference(seed, field):
    # over Q the coefficients have denominators, so rows reach the
    # elimination with entries that are not integers
    rng = random.Random(seed)
    alg = LeavittAlgebra(random_graph(rng, 3, 5), field)
    if field == QQ:
        def coefficient(rng):
            return Fraction(rng.randint(-4, 4), rng.randint(1, 6))
    else:
        def coefficient(rng):
            return rng.randint(-8, 8)
    xs = random_span(alg, rng, coefficient)
    ys = [x.scale(Fraction(1, 3)) if field == QQ else x.scale(5) for x in xs]
    ys = [y + z.scale(coefficient(rng)) for y, z in zip(ys, reversed(xs))]
    if rng.random() < 0.5:
        ys += random_span(alg, rng, coefficient)[:1]
    assert same_span(alg, xs, ys) == ref_same_span(alg, xs, ys)
    monomials = sorted({m for x in xs + ys for m in x.terms}, key=sort_key)
    index = {m: i for i, m in enumerate(monomials)}
    rows = [{index[m]: k for m, k in e.terms.items()} for e in xs + ys]
    assert _rref(rows, field) == ref_rref(rows, field)


def test_oracle_unit_rows_settle_every_column(monkeypatch):
    # R_6 at degree 0 and L = 4: of the 1,296 normal monomials the 1,260
    # with |alpha| = |beta| = 2 are forced to 0 by the bound, which leaves 36
    # candidates and 490 rows, all of them unit rows.  Every candidate but
    # the vertex v, which commutes with every generator and so is in no row,
    # has a unit row of its own, so all 35 pivot columns are settled and no
    # column reaches the elimination.
    eliminated = []
    eliminate = lpa.center._eliminate

    def recording_eliminate(rows, field):
        eliminated.extend(c for row in rows for c in row)
        return eliminate(rows, field)

    monkeypatch.setattr(lpa.center, "_eliminate", recording_eliminate)
    alg = LeavittAlgebra(rose(6))
    cands, rows = _oracle_matrix(alg, 0, 4)
    reduced = _rref(rows, QQ)
    assert len(cands) == 36
    assert len(rows) == 490 and all(len(row) == 1 for row in rows)
    assert reduced == [{c: 1} for c in range(1, 36)]
    assert eliminated == []
    assert len(oracle_commutant(alg, 0, 4)) == 1


@st.composite
def rows_with_units(draw, p):
    """Sparse int rows over 8 columns, with unit rows {j: k} planted among
    them (some duplicated, some with k a multiple of p, which is the zero row
    over F_p) and rows whose entries are multiples of p."""
    modulus = p or 1
    entries = st.integers(-9, 9) | st.integers(-3, 3).map(lambda k: k * modulus)
    rows = draw(st.lists(st.dictionaries(st.integers(0, 7), entries, max_size=4), max_size=8))
    rows = [{c: k for c, k in row.items() if k} for row in rows]
    units = draw(st.lists(st.tuples(st.integers(0, 7), entries.filter(bool)), max_size=6))
    for c, k in units:
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, {c: k})
        if draw(st.booleans()):
            rows.insert(draw(st.integers(0, len(rows))), {c: -k})
    return rows


@pytest.mark.parametrize("field", [QQ, F7, F2], ids=["q", "p7", "p2"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_rref_with_unit_rows_matches_reference(field, data):
    rows = data.draw(rows_with_units(getattr(field, "p", None)))
    assert _rref(rows, field) == ref_rref(rows, field)


# -- the shapes _rref settles without elimination ------------------------------------


def settled(monkeypatch, rows, field):
    """_rref of the rows, and whether it called _eliminate."""
    calls = []
    monkeypatch.setattr(lpa.center, "_eliminate", counted(calls, lpa.center._eliminate))
    return _rref(rows, field), bool(calls)


def field_typed(rows, field):
    """Over Q an entry is an int exactly when it is integral, else a
    Fraction; over F_p it is an int in [0, p)."""
    if field is QQ:
        return all(
            type(k) is (int if Fraction(k).denominator == 1 else Fraction)
            for row in rows
            for k in row.values()
        )
    return all(type(k) is int and 0 <= k < field.p for row in rows for k in row.values())


def typed(rows):
    return [{c: (type(k), k) for c, k in row.items()} for row in rows]


@pytest.mark.parametrize("field", [QQ, F7, F2], ids=["q", "p7", "p2"])
def test_rref_of_no_rows_is_empty(monkeypatch, field):
    assert settled(monkeypatch, [], field) == ([], False)
    assert ref_rref([], field) == []


@pytest.mark.parametrize("field", [QQ, F7, F2], ids=["q", "p7", "p2"])
def test_rref_of_unit_rows_alone(monkeypatch, field):
    # over F_2 the rows {3: 2} and {0: 14} are zero; over F_7, {0: 14} is
    rows = [{3: 2}, {1: -5}, {3: 7}, {0: 14}, {1: 3}]
    got, eliminated = settled(monkeypatch, rows, field)
    assert got == ref_rref(rows, field)
    assert not eliminated and field_typed(got, field)
    assert [min(r) for r in got] == {QQ: [0, 1, 3], F7: [1, 3], F2: [1, 3]}[field]


one_row_cases = [
    # (rows, field): one multi-entry row once the unit rows are settled
    ([{4: Fraction(-5, 7), 0: Fraction(2, 3), 2: 3}], QQ),
    ([{1: 2, 5: -6, 3: Fraction(1, 2)}], QQ),
    ([{2: -4, 5: 8, 6: 12}], QQ),
    ([{1: 1}, {1: Fraction(3, 5), 4: Fraction(9, 10), 0: -2}], QQ),
    ([{0: 7, 2: 14, 5: -21}], F7),  # every entry = 0 mod 7: the zero row
    ([{0: 7, 2: 3, 5: 14}], F7),  # all but one = 0 mod 7: a unit row
    ([{1: 5}, {1: 3, 4: 7}], F7),  # zero once the unit column is settled
    ([{1: 5}, {1: 3, 4: 7, 6: 2}], F7),
    ([{0: 2, 3: 4}], F2),
    ([{0: 3, 3: 4, 5: 1}], F2),
    ([{0: 3, 4: 5}], F7),  # residues in [0, 7), as same_span passes them
]


@pytest.mark.parametrize("rows, field", one_row_cases)
def test_rref_of_one_multi_entry_row(monkeypatch, rows, field):
    """The direct path gives the reference RREF, and the same entries and
    types as the elimination, which the last row and its double go
    through."""
    got, eliminated = settled(monkeypatch, rows, field)
    assert not eliminated
    assert got == ref_rref(rows, field)
    assert field_typed(got, field)
    double = {c: k + k for c, k in rows[-1].items()}
    doubled, eliminated = settled(monkeypatch, rows + [double], field)
    assert eliminated and typed(doubled) == typed(got)


@st.composite
def small_systems(draw, p):
    """A few sparse rows, some one-entry, some repeated or negated, with
    int entries (and Fractions over Q) that are often multiples of p: every
    shape _rref tells apart."""
    modulus = p or 1
    ints = st.integers(-9, 9) | st.integers(-3, 3).map(lambda k: k * modulus)
    entries = ints if p else ints | st.fractions(min_value=-5, max_value=5, max_denominator=6)
    row = st.dictionaries(st.integers(0, 5), entries, min_size=1, max_size=4)
    rows = [
        {c: QQ.coerce(k) if p is None else k for c, k in row.items() if k}
        for row in draw(st.lists(row, max_size=4))
    ]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        r = draw(st.sampled_from(rows))
        again = dict(r) if draw(st.booleans()) else {c: -k for c, k in r.items()}
        rows.insert(draw(st.integers(0, len(rows))), again)
    return rows


@pytest.mark.parametrize("field", [QQ, F7, F2], ids=["q", "p7", "p2"])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_rref_shapes_match_reference(field, data):
    rows = data.draw(small_systems(getattr(field, "p", None)))
    reduced = _rref(rows, field)
    assert reduced == ref_rref(rows, field)
    assert field_typed(reduced, field)


eliminated_cases = [
    # (rows, field): two or more multi-entry rows are left once the unit rows
    # are settled, so _rref eliminates
    ([{0: Fraction(1, 3), 1: 2, 3: -1}, {1: Fraction(5, 2), 2: 4}, {0: 3, 2: 1, 3: 7}], QQ),
    ([{0: 1, 1: 2}, {1: 3, 2: 1}, {0: 2, 1: 7, 2: 1}, {2: 6, 4: 1}], QQ),  # rank 3
    ([{3: 1}, {0: 4, 3: 2, 5: -6}, {0: -2, 5: 9}, {1: Fraction(-7, 4), 5: 1}], QQ),
    ([{0: 3, 1: 5, 2: 1}, {1: 2, 2: 6}, {0: 1, 2: 4}], F7),
    ([{0: 14, 1: 3, 2: 5}, {0: 1, 1: 21, 2: -2}, {1: 9, 2: 15}], F7),
    ([{0: 2, 2: 3}, {1: 4, 2: 6}], F7),  # residues
    ([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], F2),  # the third is the sum
    ([{0: 3, 1: 2, 2: 1}, {1: 5, 2: 4, 3: 1}, {0: 1, 3: 7}], F2),
    # a row repeated, or negated, lies in the first one's span and is
    # eliminated to zero
    ([{0: 1, 2: -1}, {0: -1, 2: 1}, {1: 1}, {0: 1, 2: -1}], QQ),
    ([{3: Fraction(1, 2), 4: -2}, {3: Fraction(-1, 2), 4: 2}], QQ),
    ([{0: 1, 2: 6}, {0: -1, 2: -6}, {0: 1, 2: 6}], F7),
    ([{0: 2, 2: 3}, {0: 2, 2: 3}], F7),  # residues, repeated as same_span can
]


@pytest.mark.parametrize("rows, field", eliminated_cases)
def test_eliminated_systems_match_reference(monkeypatch, rows, field):
    """The elimination gives the reference RREF with field-typed entries:
    ints where integral and Fractions otherwise over Q, residues over F_p."""
    got, eliminated = settled(monkeypatch, rows, field)
    assert eliminated
    ref = coerced(ref_rref(rows, field), field)
    assert typed(got) == typed(ref)
    assert field_typed(got, field)


def test_back_elimination_leaves_ints(monkeypatch):
    # clearing column 1 from the first pivot row {0: 1, 1: 1/2, 2: 1/2}
    # leaves Fraction(1, 1) at column 2; the final _monic makes it an int
    got, eliminated = settled(monkeypatch, [{0: 2, 1: 1, 2: 1}, {1: 1, 2: -1}], QQ)
    assert eliminated
    assert typed(got) == typed([{0: 1, 2: 1}, {1: 1, 2: -1}])
    assert all(type(k) is int for row in got for k in row.values())


def test_same_span_of_disjoint_and_empty_sides():
    alg = alg_of("g_line3")
    v1, v2, v3 = (alg.vertex(v) for v in ("v1", "v2", "v3"))
    cases = [
        ([], []),
        ([alg.zero()], []),
        ([v1], [v2]),  # disjoint supports
        ([v1 + v2], [v3]),
        ([v1, v2], [v2.scale(5), v1 + v2]),
        ([], [v1]),  # one empty side
        ([v1 + v3], []),
        ([alg.zero(), v1.scale(Fraction(2, 3))], [v1]),
    ]
    for xs, ys in cases:
        assert same_span(alg, xs, ys) == ref_same_span(alg, xs, ys), (xs, ys)
        assert same_span(alg, ys, xs) == ref_same_span(alg, ys, xs), (ys, xs)
    assert [same_span(alg, xs, ys) for xs, ys in cases] == [
        True, True, False, False, True, False, False, True,
    ]


@given(st.integers(0, 10**6), st.sampled_from([QQ, F7]))
@settings(max_examples=100, deadline=None)
def test_same_span_ignores_the_order_of_the_monomials(seed, field):
    # same_span numbers the monomials as it meets them, so the order of
    # the terms and of the elements decides the columns; the verdict and
    # the reference's, which sorts, never differ
    rng = random.Random(seed)
    alg = LeavittAlgebra(random_graph(rng, 3, 5), field)
    xs = random_span(alg, rng, lambda rng: rng.randint(-3, 3))
    ys = [x.scale(2) for x in xs] + random_span(alg, rng, lambda rng: rng.randint(-3, 3))[:1]

    def shuffled(elems):
        out = [AlgebraElement(alg, dict(rng.sample(list(e.terms.items()), len(e.terms))))
               for e in elems]
        return rng.sample(out, len(out))

    for a, b in [(xs, ys), (ys, xs), (shuffled(xs), shuffled(ys)), (xs, shuffled(xs))]:
        assert same_span(alg, a, b) == ref_same_span(alg, a, b)


def test_oracle_matrix_builds_no_elements(monkeypatch, count_instances):
    # R_6 at degree 0 and L = 4: 1,296 normal monomials, 36 candidates kept
    # and 490 rows.  Summing each candidate's commutators as AlgebraElements,
    # then copying them into the rows, builds 16,836 elements for all 1,296;
    # the int rows are summed under flat tuple keys, with one
    # `generator_action` call per kept candidate and none for the rest
    alg = LeavittAlgebra(rose(6))
    calls = []
    monkeypatch.setattr(alg, "generator_action", counted(calls, alg.generator_action))
    elements = count_instances(AlgebraElement)
    cands, rows = _oracle_matrix(alg, 0, 4)
    assert len(cands) == 36
    assert elements[0] == 0
    assert [terms for terms, _ in calls] == [((m, 1),) for m in cands]


def test_oracle_matrix_size_on_r8_at_length_6():
    # R_8 at degree 0 and L = 6: of the 262,144 normal monomials the 258,048
    # with |alpha| = |beta| = 3 are forced to 0, which leaves the 4,096 with
    # |alpha| = |beta| <= 2 and 72,702 rows; building them all made
    # 4,653,054 rows
    alg = LeavittAlgebra(rose(8))
    cands, rows = _oracle_matrix(alg, 0, 6)
    assert len(cands) == 4096
    assert len(rows) == 72702


# -- exact coefficients over Q ---------------------------------------------------


def test_rationals_are_ints_when_integral():
    two = QQ.coerce(Fraction(4, 2))
    assert type(two) is int and two == 2
    assert type(QQ.coerce(-3)) is int
    half = parse_coefficient(QQ, "-3/6")
    assert type(half) is Fraction and half == Fraction(-1, 2)
    assert type(parse_coefficient(QQ, "-4/2")) is int
    for text in ("1", "-1", "-1/2"):
        assert str(parse_coefficient(QQ, text)) == str(Fraction(text)) == text


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_basis_coefficients_are_ints(name):
    rep = center_of(alg_of(name))
    elems = list(rep.basis_zero) + [b for bs in rep.basis_nonzero.values() for b in bs]
    assert all(type(k) is int for b in elems for k in b.element.terms.values())


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["R3"])
def test_coefficients_are_never_floats(name):
    # every coefficient the center, the verifier and the oracle compute over Q
    # is an int or a Fraction, also once elements with denominators enter;
    # the oracle's kernel vectors, whose pivots divide their entries here,
    # are ints
    alg = LeavittAlgebra(R3) if name == "R3" else alg_of(name)
    rep = center_of(alg)
    basis = [b.element for b in rep.basis_zero]
    basis += [b.element for bs in rep.basis_nonzero.values() for b in bs]
    third = Fraction(1, 3)
    rng = random.Random(0)
    xs = random_span(alg, rng, lambda rng: rng.randint(-3, 3))
    xs += [x.scale(third) for x in xs + basis]
    coms = [c for x in xs for c in alg.commutators(x).values()]
    assert coms or name == "g_loop"  # K[x, x^-1] is commutative
    kernels, commutants = [], []
    for degree in range(-2, 3):
        cands, rows = _oracle_matrix(alg, degree, 4)
        kernels += kernel_basis(rows, len(cands), QQ)
        commutants += oracle_commutant(alg, degree, 4)
    assert same_span(alg, basis, [x.scale(third) for x in basis])
    values = [k for x in basis + xs + coms + commutants for k in x.terms.values()]
    assert all(type(k) is int for vec in kernels for k in vec.values())
    values += [k for vec in kernels for k in vec.values()]
    assert {type(k) for k in values} == {int, Fraction}
