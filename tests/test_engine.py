import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lpa.engine import EngineError, LeavittAlgebra, Monomial
from lpa.fields import PrimeField
from lpa.fixtures import graph
from lpa.graphs import Edge, Graph
from lpa.randomgen import random_graph


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
        matching = [p for p in paths if alg.path_range(p) == alg.path_range(a)]
        b = rng.choice(matching)
        out = out + alg.monomial_element(a, b, rng.randint(-2, 2))
    return out


# -- special edge ------------------------------------------------------------


def test_special_edge_examples():
    assert alg_of("g_r2").special_edge("v") == "e1"
    assert alg_of("g_toeplitz").special_edge("u") == "e"
    with pytest.raises(EngineError):
        alg_of("g_line3").special_edge("v3")


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
    assert x.monomials() == [
        Monomial(alg.path("v", ("e1",)), alg.path("v", ("e2",)))
    ]


def test_orthogonal_ghost_product_is_zero():
    alg = alg_of("g_r2")
    assert (alg.ghost("e1") * alg.edge("e2")).is_zero()


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
    assert x.is_zero()


def test_normal_form_vertex_is_fixed():
    alg = alg_of("g_line3")
    assert alg.vertex("v2").monomials() == [
        Monomial(alg.trivial_path("v2"), alg.trivial_path("v2"))
    ]


def test_normal_form_range_mismatch():
    alg = alg_of("g_line3")
    with pytest.raises(EngineError):
        alg.monomial(alg.path("v1", ("e1",)), alg.trivial_path("v1"))


# -- linear structure and commutators ----------------------------------------


def test_commutator_examples():
    alg = alg_of("g_toeplitz")
    assert alg.commutator(alg.vertex("u"), alg.edge("f")) == alg.edge("f")
    assert alg.commutator(alg.vertex("u"), alg.vertex("u")).is_zero()
    loop = alg_of("g_loop")
    assert loop.commutator(loop.edge("c"), loop.ghost("c")).is_zero()


def test_mixed_algebra_rejected():
    a = alg_of("g_loop")
    b = alg_of("g_loop")
    with pytest.raises(EngineError):
        a.vertex("v") + b.vertex("v")


# -- grading -----------------------------------------------------------------


def test_homogeneous_components_examples():
    alg = alg_of("g_loop")
    x = alg.edge("c") + alg.vertex("v")
    comps = alg.homogeneous_components(x)
    assert set(comps) == {0, 1}
    assert comps[0] == alg.vertex("v") and comps[1] == alg.edge("c")

    line = alg_of("g_line3")
    y = line.edge("e1") + line.ghost("e1")
    comps = line.homogeneous_components(y)
    assert set(comps) == {-1, 1}


@given(random_algebras(), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_components_recombine_and_grade_products(alg, salt):
    rng = random.Random(salt)
    x = random_element(alg, rng)
    comps = alg.homogeneous_components(x)
    total = alg.zero()
    for n, part in comps.items():
        for m in part.monomials():
            assert m.degree == n
        total = total + part
    assert total == x


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


def rose(k):
    return Graph(["v"], [Edge(f"e{i}", "v", "v") for i in range(1, k + 1)])


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
        witness = None
        for (label, gen), (label2, kind, gid) in zip(
            alg.generators(), alg.generator_labels()
        ):
            assert label2 == label
            ref = alg.commutator(x, gen)
            assert alg.generator_commutator(x, kind, gid) == ref, (label, x)
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
    assert alg.generator_commutator(g1, "edge", "e1") == e2 * g2
    # [e1, e1*] = -e2 e2*
    assert alg.generator_commutator(e1, "ghost", "e1") == (e2 * g2).scale(-1)
    with pytest.raises(EngineError):
        alg.generator_commutator(e1, "loop", "e1")


# -- corner reduction --------------------------------------------------------


def test_reduce_to_corner_laurent():
    loop = alg_of("g_loop")
    c = loop.edge("c")
    red = loop.reduce_to_corner(c + c * c, 2)
    assert red.kind == "laurent" and red.cycle_base == "v"


def test_reduce_to_corner_vertex_line3():
    line = alg_of("g_line3")
    red = line.reduce_to_corner(line.edge("e1"), 2)
    assert red.kind == "vertex"
    assert red.vertex == "v2" and red.scalar == Fraction(1)


def test_reduce_to_corner_vertex_r2():
    alg = alg_of("g_r2")
    x = alg.edge("e1") * alg.ghost("e2")
    red = alg.reduce_to_corner(x, 2)
    assert red.kind == "vertex" and red.vertex == "v" and red.scalar == Fraction(1)


def test_reduce_to_corner_rejects_zero():
    with pytest.raises(EngineError):
        alg_of("g_loop").reduce_to_corner(alg_of("g_loop").zero(), 1)


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
        assert m.alpha.edges == ("c",) * max(n, 0)
        assert m.beta.edges == ("c",) * max(-n, 0)


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
        matching = [p for p in paths if alg.path_range(p) == alg.path_range(a)]
        b = rng.choice(matching)
        raw.append((Monomial(a, b), alg.field.coerce(rng.randint(-2, 2))))
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
    assert alg.parse_element(alg.render(x)) == x


def test_prime_field_engine():
    alg = alg_of("g_r2", PrimeField(5))
    x = alg.vertex("v").scale(3) + alg.vertex("v").scale(2)
    assert x.is_zero()
