import operator
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lpa.center import basis_zero
from lpa.classify import x_decomposition
from lpa.engine import AlgebraElement, EngineError, LeavittAlgebra
from lpa.fields import QQ, PrimeField
from lpa.graphs import Edge, Graph, GraphError
from lpa.randomgen import random_graph
from corpus import graph
from test_reachability import counted
from references import (
    generators,
    line,
    monomial_element,
    parse_element,
    plain_monomial,
    ref_involution,
    ref_normal_monomials,
    renamed,
    rose,
)


def alg_of(name, field=None):
    if field is None:
        return LeavittAlgebra(graph(name))
    return LeavittAlgebra(graph(name), field)


def random_algebras(max_vertices=4, max_edges=6):
    return st.integers(0, 10**6).map(
        lambda s: LeavittAlgebra(random_graph(random.Random(s), max_vertices, max_edges))
    )


def random_element(alg, rng, max_paths=3):
    """Small random element from random monomials."""
    paths = alg.enumerate_paths(2)
    out = alg.zero()
    for _ in range(rng.randint(1, max_paths)):
        a = rng.choice(paths)
        matching = [p for p in paths if alg.graph.path_range(*p) == alg.graph.path_range(*a)]
        b = rng.choice(matching)
        out = out + monomial_element(alg, a, b, rng.randint(-2, 2))
    return out


# -- special edge ------------------------------------------------------------


def test_special_edge_examples():
    assert alg_of("g_r2")._specials == {"e1"}
    assert alg_of("g_toeplitz")._specials == {"e"}  # u's, not f; the sink v has none
    assert alg_of("g_line3")._specials == {"e1", "e2"}  # v1's and v2's; the sink v3 has none


@given(random_algebras())
@settings(max_examples=60, deadline=None)
def test_special_edges_are_the_least_out_edges(alg):
    """The special edge of a vertex is its out-edge with the least id, and
    `_specials` is the set of them: one per vertex with an out-edge."""
    g = alg.graph
    out = {v: [e.id for e in g.edges if e.src == v] for v in g.vertices}
    assert alg._specials == {min(ids) for ids in out.values() if ids}


# -- monomials ----------------------------------------------------------------

paths = st.tuples(
    st.sampled_from(["u", "v", "v10", "v2"]),
    st.lists(st.sampled_from(["e1", "e10", "e2"]), max_size=3).map(tuple),
)


@given(paths, paths, paths, paths)
def test_monomial_is_its_plain_tuple(a, b, c, d):
    """alpha beta* is the 4-tuple alpha + beta of its paths (source, edges):
    its sides are the slices, and it is ordered as the pair (alpha, beta)."""
    m, n = a + b, c + d
    assert type(m) is tuple and (m[:2], m[2:]) == (a, b)
    assert (m < n) == ((a, b) < (c, d))
    assert (m == n) == ((a, b) == (c, d))


def by_length_then_fields(m):
    sa, p, sb, q = m
    return len(p) + len(q), sa, p, sb, q


@given(random_algebras(3, 5), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_sorted_terms_order(alg, salt):
    x = random_element(alg, random.Random(salt), 4)
    order = sorted(x.terms, key=by_length_then_fields)
    assert [m for m, _ in x.sorted_terms()] == order


@given(random_algebras(3, 5), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_plain_tuple_keys_equal_monomial_keys(alg, salt):
    """Every key of a sum, product, scaling, involution or commutator is
    the plain 4-tuple (s(alpha), alpha, s(beta), beta)."""
    rng = random.Random(salt)
    x, y = random_element(alg, rng, 4), random_element(alg, rng, 4)
    results = [x + y, x * y, x.scale(-2), alg.involution(x), *alg.commutators(x).values()]
    for z in results:
        assert all(plain_monomial(m) for m in z.terms)


# -- products ----------------------------------------------------------------


def test_ck1_on_loop():
    alg = alg_of("g_loop")
    assert alg.ghost("c") * alg.edge("c") == alg.vertex("v")


def test_ck2_rewrite_on_loop():
    alg = alg_of("g_loop")
    assert alg.edge("c") * alg.ghost("c") == alg.vertex("v")


def test_irreducible_monomial_on_r2():
    alg = alg_of("g_r2")
    x = alg.edge("e1") * alg.ghost("e2")
    assert list(x.terms) == [("v", ("e1",), "v", ("e2",))]


def test_orthogonal_ghost_product_is_zero():
    alg = alg_of("g_r2")
    assert not (alg.ghost("e1") * alg.edge("e2"))


# -- normal form -------------------------------------------------------------


def test_normal_form_single_edge_ck2():
    alg = alg_of("g_line3")
    assert alg.edge("e1") * alg.ghost("e1") == alg.vertex("v1")


def test_normal_form_ck2_identity_r2():
    alg = alg_of("g_r2")
    x = (
        alg.vertex("v")
        - alg.edge("e1") * alg.ghost("e1")
        - alg.edge("e2") * alg.ghost("e2")
    )
    assert not x


def test_normal_form_vertex_is_fixed():
    alg = alg_of("g_line3")
    assert list(alg.vertex("v2").terms) == [("v2", (), "v2", ())]


def test_normal_form_range_mismatch():
    alg = alg_of("g_line3")
    with pytest.raises(EngineError):
        alg.normal_form([(("v1", ("e1",), "v1", ()), 1)])


@pytest.mark.parametrize("k", [1, 0])
@pytest.mark.parametrize(
    "term, message",
    [
        (("nope", (), "nope", ()), "unknown vertex: 'nope'"),
        (("v1", ("zz",), "v2", ()), "unknown edge: 'zz'"),
        (("v1", ("e2",), "v3", ()), "edge 'e2' does not continue the path at 'v1'"),
        (("v1", ("e1", "e1"), "v2", ()), "edge 'e1' does not continue the path at 'v2'"),
        # alpha is a path; beta is checked on its own
        (("v2", (), "v1", ("e2",)), "edge 'e2' does not continue the path at 'v1'"),
        (("v3", (), "v3", ("zz",)), "unknown edge: 'zz'"),
    ],
    ids=["vertex", "edge", "continue", "continue-later", "beta-continue", "beta-edge"],
)
def test_normal_form_checks_every_raw_term(term, message, k):
    """A raw term with a side that is no path of the graph raises the
    graph's own error, also with a zero coefficient, and again on a second
    call after a valid term: every call checks each of its raw terms."""
    alg = alg_of("g_line3")
    valid = (("v1", ("e1",), "v2", ()), 1)
    for raw in ([(term, k)], [valid, (term, k)]):
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            alg.normal_form(raw)


# -- linear structure and commutators ----------------------------------------


def test_commutator_examples():
    alg = alg_of("g_toeplitz")
    assert alg.commutator(alg.vertex("u"), alg.edge("f")) == alg.edge("f")
    assert not alg.commutator(alg.vertex("u"), alg.vertex("u"))
    loop = alg_of("g_loop")
    assert not loop.commutator(loop.edge("c"), loop.ghost("c"))


def test_mixed_algebra_rejected():
    a = alg_of("g_loop")
    b = alg_of("g_loop")
    with pytest.raises(EngineError):
        a.vertex("v") + b.vertex("v")


@pytest.mark.parametrize(
    "first, second", [(PrimeField(5), PrimeField(7)), (PrimeField(7), QQ)], ids=["p5-p7", "p7-q"]
)
def test_fields_do_not_mix(first, second):
    # a coefficient is a plain number that carries no field, so the guard
    # against mixing fields is AlgebraElement._check: elements over two
    # fields of one graph belong to two algebras
    x = alg_of("g_r2", first).vertex("v")
    y = alg_of("g_r2", second).vertex("v")
    for op in (operator.add, operator.sub, operator.mul):
        for a, b in ((x, y), (y, x)):
            with pytest.raises(EngineError):
                op(a, b)


# -- involution --------------------------------------------------------------


def test_involution_examples():
    line = alg_of("g_line3")
    assert line.involution(line.edge("e1")) == line.ghost("e1")
    assert line.involution(line.vertex("v2")) == line.vertex("v2")
    loop = alg_of("g_loop")
    c2 = loop.edge("c") * loop.edge("c")
    cstar2 = loop.ghost("c") * loop.ghost("c")
    assert loop.involution(c2) == cstar2
    assert loop.involution(loop.involution(c2)) == c2


@given(random_algebras(), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_involution_antiautomorphism(alg, salt):
    rng = random.Random(salt)
    x = random_element(alg, rng)
    y = random_element(alg, rng)
    assert alg.involution(x * y) == alg.involution(y) * alg.involution(x)
    assert alg.involution(alg.involution(x)) == x


@given(st.integers(0, 10**6), st.sampled_from([QQ, PrimeField(7)]), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_involution_matches_reference(seed, field, salt):
    """The term swap equals the swap through `normal_form` on random
    normal-form elements, with coefficients of the same values and types:
    ints and Fractions over Q, residues over F_7."""
    alg = LeavittAlgebra(random_graph(random.Random(seed), 4, 6), field)
    rng = random.Random(salt)
    x = random_element(alg, rng, max_paths=5)
    for y in (x, x.scale(Fraction(1, 3)), -x):
        star = alg.involution(y)
        ref = ref_involution(alg, y)
        assert star == ref
        assert {m: type(k) for m, k in star.terms.items()} == {
            m: type(k) for m, k in ref.terms.items()
        }


# -- centrality --------------------------------------------------------------


def test_is_central_examples():
    line = alg_of("g_line3")
    one = line.vertex("v1") + line.vertex("v2") + line.vertex("v3")
    assert line.is_central(one).central

    loop = alg_of("g_loop")
    assert loop.is_central(loop.edge("c")).central

    toe = alg_of("g_toeplitz")
    res = toe.is_central(toe.vertex("u"))
    assert not res.central and res.witness == "f"


# Graphs whose vertices emit several edges, so that both special-edge
# rewrites in the closed-form generator action run: roses (loops) and a
# vertex with parallel and loop exits.
MULTI_EXIT = [
    rose(1),
    rose(2),
    rose(3),
    Graph(
        ["u", "v", "w"],
        [Edge("a", "u", "v"), Edge("b", "u", "v"), Edge("c", "u", "u"),
         Edge("d", "v", "w"), Edge("f", "v", "u")],
    ),
]


@given(
    st.one_of(
        st.integers(0, 10**6).map(lambda s: random_graph(random.Random(s), 5, 10)),
        st.sampled_from(MULTI_EXIT),
    ),
    st.sampled_from([None, PrimeField(7)]),
    st.integers(0, 10**6),
)
@settings(max_examples=150, deadline=None)
def test_generator_commutator_matches_reference(g, field, salt):
    alg = LeavittAlgebra(g) if field is None else LeavittAlgebra(g, field)
    rng = random.Random(salt)
    for _ in range(3):
        x = random_element(alg, rng, 4)
        coms = alg.commutators(x)
        # the terms are summed under flat keys and come back as plain 4-tuples
        assert all(
            type(m) is tuple and len(m) == 4
            for c in coms.values()
            for m in c.terms
        )
        witness = None
        for (label, gen), (label2, kind, gid) in zip(
            generators(alg), alg.generator_labels()
        ):
            assert label2 == label
            ref = alg.commutator(x, gen)
            assert coms.get((kind, gid), alg.zero()) == ref, (label, x)
            if ref and witness is None:
                witness = (label, ref)
        res = alg.is_central(x)
        if witness is None:
            assert res.central and res.witness is None
        else:
            assert not res.central
            assert (res.witness, res.commutator) == witness


def test_generator_commutator_rewrite_branches():
    alg = alg_of("g_r2")  # one vertex v, loops e1 (special) and e2
    e1, e2 = alg.edge("e1"), alg.edge("e2")
    g1, g2 = alg.ghost("e1"), alg.ghost("e2")
    # [e1*, e1] = e1* e1 - e1 e1* = v - (v - e2 e2*) = e2 e2*
    assert alg.commutators(g1)[("edge", "e1")] == e2 * g2
    # [e1, e1*] = -e2 e2*
    assert alg.commutators(e1)[("ghost", "e1")] == (e2 * g2).scale(-1)


class CountingTerms(dict):
    """A terms dict that counts the items it yields, however it is read."""

    visited = 0

    def _count(self, it):
        for item in it:
            self.visited += 1
            yield item

    def __iter__(self):
        return self._count(super().__iter__())

    def keys(self):
        return self._count(super().keys())

    def values(self):
        return self._count(super().values())

    def items(self):
        return self._count(super().items())


def line_a(n):
    """The line L_n and its one basis element a[c], which has n terms."""
    g = line(n)
    alg = LeavittAlgebra(g)
    (b,) = basis_zero(alg, x_decomposition(g))
    return alg, b.element


def test_is_central_reads_terms_once():
    """On the line L_2000 the one basis element a[c] has 2,000 terms and
    there are 5,998 generators; a scan per generator visits ~12 M items."""
    n = 2000
    alg, x = line_a(n)
    assert len(x.terms) == n
    terms = CountingTerms(x.terms)
    assert alg.is_central(AlgebraElement(alg, terms)).central
    generators = sum(1 for _ in alg.generator_labels())
    assert terms.visited <= 3 * n + generators


def test_is_central_builds_no_monomials(monkeypatch, count_instances):
    """The central a[c] of L_2000 commutes with all 5,998 generators, so its
    commutators cancel to exact zeros as plain numbers: over Q verifying it
    puts no entry into the field and builds no element."""
    alg, x = line_a(2000)
    coerced = []
    monkeypatch.setattr(alg.field, "coerce", counted(coerced, alg.field.coerce))
    elements = count_instances(AlgebraElement)
    assert alg.is_central(x).central
    assert coerced == [] and elements[0] == 0


def test_is_central_reads_no_generator_labels(monkeypatch):
    """a[c] of L_2000 has no nonzero commutator, so no witness is looked
    for among the 5,998 generator labels."""
    alg, x = line_a(2000)
    walked = [0]
    labels = alg.generator_labels

    def counting():
        for item in labels():
            walked[0] += 1
            yield item

    monkeypatch.setattr(alg, "generator_labels", counting)
    assert alg.is_central(x).central
    assert walked[0] == 0


def test_is_central_builds_no_fractions(count_fractions):
    """Over Q the coefficients of a[c] are the int 1, so summing its
    commutators with the 5,998 generators is int arithmetic."""
    alg, x = line_a(2000)
    built = count_fractions[0]
    assert alg.is_central(x).central
    assert count_fractions[0] == built


# -- dimension checks ----------------------------------------------------------


def test_line3_has_nine_normal_monomials():
    alg = alg_of("g_line3")
    # every monomial over a 3-vertex line fits in |alpha|+|beta| <= 4
    assert len(alg.normal_monomials(-2, 4) + alg.normal_monomials(-1, 4)
               + alg.normal_monomials(0, 4) + alg.normal_monomials(1, 4)
               + alg.normal_monomials(2, 4)) == 9


def test_loop_normal_monomials_are_laurent_basis():
    alg = alg_of("g_loop")
    for n in range(-3, 4):
        ms = alg.normal_monomials(n, 6)
        # exactly one normal monomial per degree: c^n, (c*)^{-n}, or v
        assert len(ms) == 1
        (m,) = ms
        assert m[1] == ("c",) * max(n, 0)
        assert m[3] == ("c",) * max(-n, 0)


@given(st.integers(0, 10**6), st.integers(-3, 3), st.integers(0, 5))
@settings(max_examples=120, deadline=None)
def test_normal_monomials_match_reference(seed, degree, max_len):
    rng = random.Random(seed)
    alg = LeavittAlgebra(renamed(random_graph(rng, 4, 5), rng))
    assert alg.normal_monomials(degree, max_len) == ref_normal_monomials(alg, degree, max_len)


def test_normal_monomials_enumerate_half_the_bound():
    # on R_6 at degree 0 and L = 4 neither side of a candidate is longer
    # than 2: 1 + 6 + 36 paths, where the all-pairs version enumerates
    # the 1,555 paths up to length 4
    alg = LeavittAlgebra(rose(6))
    enumerate_paths = alg.enumerate_paths
    bounds, sizes = [], []

    def counting(max_len):
        paths = enumerate_paths(max_len)
        bounds.append(max_len)
        sizes.append(len(paths))
        return paths

    alg.enumerate_paths = counting
    assert len(alg.normal_monomials(0, 4)) == 1296
    assert bounds and max(bounds) <= (4 + 0) // 2
    assert sum(sizes) <= 43


def test_enumeration_stops_at_the_longest_path():
    # L_3's longest path has 2 edges, so a bound of 10^12 must cost no more
    # than a bound of 2; extending empty layers up to the bound hangs, so
    # the run gets a process of its own and a timeout
    code = (
        "from lpa.engine import LeavittAlgebra\n"
        "from lpa.graphs import Edge, Graph\n"
        "alg = LeavittAlgebra(Graph(['a', 'b', 'c'], [Edge('e', 'a', 'b'), Edge('f', 'b', 'c')]))\n"
        "print(len(alg.enumerate_paths(10**12)), len(alg.normal_monomials(0, 10**12)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["6", "3"]


# -- ring axioms ---------------------------------------------------------------


@given(random_algebras(3, 5), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_ring_axioms(alg, salt):
    rng = random.Random(salt)
    x = random_element(alg, rng, 2)
    y = random_element(alg, rng, 2)
    z = random_element(alg, rng, 2)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    one = alg.one()
    assert one * x == x and x * one == x


# -- confluence evidence -------------------------------------------------------


@given(random_algebras(3, 5), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_normal_form_independent_of_term_order(alg, salt):
    rng = random.Random(salt)
    paths = alg.enumerate_paths(2)
    raw = []
    for _ in range(4):
        a = rng.choice(paths)
        matching = [p for p in paths if alg.graph.path_range(*p) == alg.graph.path_range(*a)]
        b = rng.choice(matching)
        raw.append((a + b, alg.field.coerce(rng.randint(-2, 2))))
    ref = alg.normal_form(list(raw))
    for _ in range(3):
        rng.shuffle(raw)
        assert alg.normal_form(list(raw)) == ref


# -- rendering round trip --------------------------------------------------------


def test_render_examples():
    alg = alg_of("g_loop")
    x = alg.edge("c") * alg.edge("c")
    assert alg.render(x) == "1·c c"
    y = alg.ghost("c").scale(-1)
    assert alg.render(y) == "(-1)·v (c)*"
    assert alg.render(alg.zero()) == "0"


@given(random_algebras(3, 5), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_render_round_trip(alg, salt):
    rng = random.Random(salt)
    x = random_element(alg, rng)
    assert parse_element(alg, alg.render(x)) == x


def test_prime_field_engine():
    alg = alg_of("g_r2", PrimeField(5))
    x = alg.vertex("v").scale(3) + alg.vertex("v").scale(2)
    assert not x
