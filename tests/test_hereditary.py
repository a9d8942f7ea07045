import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from lpa.engine import GPath, LeavittAlgebra
from lpa.graphs import Edge, Graph, GraphError, parse_graph
from lpa.hereditary import (
    HereditarySet,
    NotHereditaryError,
    entry_paths,
    hereditary_closure,
    is_dense_ideal,
    path_vertex_id,
    restriction_graph,
    saturated_closure,
)
from lpa.randomgen import random_graph
from corpus import graph
from references import PATH_ID_CLASHES, monomial_element, random_graphs
from test_acceptance import resolve_vertex
from test_reachability import ref_is_saturated


def random_hereditary(g, rng):
    seed = {v for v in g.vertices if rng.random() < 0.4}
    return hereditary_closure(g, seed)


graphs_and_salt = st.tuples(
    st.integers(0, 10**6), st.integers(0, 10**6)
).map(
    lambda t: (random_graph(random.Random(t[0]), 5, 8), random.Random(t[1]))
)


# -- closures ----------------------------------------------------------------


def test_hereditary_closure_examples():
    assert hereditary_closure(graph("g_toeplitz"), {"u"}).members == {"u", "v"}
    assert hereditary_closure(graph("g_line3"), {"v3"}).members == {"v3"}
    assert hereditary_closure(graph("g_cwe"), {"w"}).members == {"w", "z"}


def test_hereditary_closure_unknown_vertex():
    with pytest.raises(GraphError):
        hereditary_closure(graph("g_loop"), {"nope"})


def test_saturated_closure_examples():
    g = graph("g_line3")
    assert saturated_closure(g, hereditary_closure(g, {"v3"})).members == {
        "v1",
        "v2",
        "v3",
    }
    g = graph("g_toeplitz")
    assert saturated_closure(g, hereditary_closure(g, {"v"})).members == {"v"}
    g = graph("g_loop")
    assert saturated_closure(g, hereditary_closure(g, {"v"})).members == {"v"}


def test_saturated_closure_requires_hereditary():
    g = graph("g_line3")
    with pytest.raises(NotHereditaryError):
        saturated_closure(g, HereditarySet(g, frozenset({"v1"})))


def test_flags_computed():
    g = graph("g_line3")
    h = HereditarySet(g, frozenset({"v3"}))
    assert h.is_hereditary and not ref_is_saturated(g, h.members)
    full = HereditarySet(g, frozenset(g.vertices))
    assert full.is_hereditary and ref_is_saturated(g, full.members)


@given(random_graphs(6, 10), st.integers(0, 2**64))
@settings(max_examples=150, deadline=None)
def test_from_bits_matches_members(g, raw):
    """The set built from a bitset is the set built from its members: equal,
    with the same hash, repr, members, bits and hereditary flag, for any
    bitset and for the closure of one.  Both sets are built before any
    members are read, so the ones `from_bits` makes on first read are
    compared too."""
    b = raw & ((1 << len(g.vertices)) - 1)
    for bits in (b, g.tree_union_bits(b)):
        h = HereditarySet.from_bits(g, bits)
        ref = HereditarySet(g, g.vertices_of(bits))
        assert h == ref
        assert hash(h) == hash(ref)
        assert repr(h) == repr(ref)
        assert (h.members, h.bits, h.is_hereditary) == (ref.members, ref.bits, ref.is_hereditary)
        assert h.bits == bits


# -- entry paths -------------------------------------------------------------


def test_entry_paths_line3():
    g = graph("g_line3")
    eps = entry_paths(g, hereditary_closure(g, {"v3"}))
    assert eps.paths == (("e2",), ("e1", "e2"))


def test_entry_paths_toeplitz_infinite():
    g = graph("g_toeplitz")
    assert entry_paths(g, hereditary_closure(g, {"v"})).is_infinite


def test_entry_paths_whole_graph_empty():
    g = graph("g_loop")
    assert entry_paths(g, hereditary_closure(g, {"v"})).paths == ()


def test_entry_paths_first_entry_property():
    g = graph("g_line3")
    eps = entry_paths(g, hereditary_closure(g, {"v3"}))
    h = {"v3"}
    for p in eps.paths:
        src = g.edge(p[0]).src
        assert src not in h
        at = src
        for eid in p[:-1]:
            at = g.edge(eid).dst
            assert at not in h
        assert g.edge(p[-1]).dst in h


# -- restriction graphs ------------------------------------------------------


def test_restriction_graph_line3():
    g = graph("g_line3")
    rg = restriction_graph(g, entry_paths(g, hereditary_closure(g, {"v3"})))
    assert set(rg.vertices) == {"v3", '["e2"]', '["e1","e2"]'}
    assert len(rg.edges) == 2
    for e in rg.edges:
        assert e.dst == "v3"


def test_restriction_graph_whole_graph_is_identity():
    for name in ("g_loop", "g_ext2"):
        g = graph(name)
        rg = restriction_graph(g, entry_paths(g, hereditary_closure(g, set(g.vertices))))
        assert (rg.vertices, rg.edges) == (g.vertices, g.edges)


def test_restriction_graph_infinite_rejected():
    g = graph("g_toeplitz")
    with pytest.raises(GraphError):
        restriction_graph(g, entry_paths(g, hereditary_closure(g, {"v"})))


def test_path_vertex_id():
    assert path_vertex_id(("e1", "e2")) == '["e1","e2"]'
    assert path_vertex_id(("a",), "#") == '#["a"]'


def test_restriction_graph_ids_are_fresh():
    """The paths ("a", "b") and ("ab",) get distinct ids, and a path into a
    vertex named "[a]" gets an id padded past it, as it is past an edge id
    that starts with "bar#["."""
    g = parse_graph(json.dumps(PATH_ID_CLASHES["concatenated_edge_ids"]))
    rg = restriction_graph(g, entry_paths(g, hereditary_closure(g, {"u"})))
    assert set(rg.vertices) == {"u", '["b"]', '["ab"]', '["a","b"]'}
    assert {e.id for e in rg.edges} == {"l1", "l2", 'bar["b"]', 'bar["ab"]', 'bar["a","b"]'}
    g = parse_graph(json.dumps(PATH_ID_CLASHES["bracketed_vertex_id"]))
    rg = restriction_graph(g, entry_paths(g, hereditary_closure(g, {"[a]"})))
    assert set(rg.vertices) == {"[a]", '#["a"]'}
    g = Graph(g.vertices + ("z",), g.edges + (Edge("bar#[", "z", "z"),))
    rg = restriction_graph(g, entry_paths(g, hereditary_closure(g, {"[a]"})))
    assert set(rg.vertices) == {"[a]", '##["a"]'}
    assert {e.id for e in rg.edges} == {"l1", "l2", 'bar##["a"]'}


# -- density -----------------------------------------------------------------


def test_is_dense_ideal_examples():
    g = graph("g_toeplitz")
    assert is_dense_ideal(g, hereditary_closure(g, {"v"}))
    g = graph("g_cwe")
    assert not is_dense_ideal(g, HereditarySet(g, frozenset({"w"})))
    g = graph("g_r2")
    assert is_dense_ideal(g, hereditary_closure(g, set(g.vertices)))


# -- vertex resolution -------------------------------------------------------


def test_resolve_vertex_line3():
    g = graph("g_line3")
    h = hereditary_closure(g, {"v3"})
    assert resolve_vertex(g, "v1", h) == [("e1", "e2")]
    assert resolve_vertex(g, "v3", h) == [()]
    assert resolve_vertex(g, "v2", h) == [("e2",)]


def test_resolve_vertex_outside_closure():
    g = graph("g_toeplitz")
    with pytest.raises(GraphError):
        resolve_vertex(g, "u", hereditary_closure(g, {"v"}))


def test_resolve_vertex_engine_identity():
    g = graph("g_line3")
    alg = LeavittAlgebra(g)
    h = hereditary_closure(g, {"v3"})
    for v in ("v1", "v2", "v3"):
        total = alg.zero()
        for p in resolve_vertex(g, v, h):
            src = g.edge(p[0]).src if p else v
            alpha = GPath(src, p)
            total = total + monomial_element(alg, alpha, alpha)
        assert total == alg.vertex(v)


# -- closure laws ------------------------------------------------------------


@given(graphs_and_salt)
@settings(max_examples=150, deadline=None)
def test_closure_laws(pair):
    g, rng = pair
    h1 = random_hereditary(g, rng)
    h2 = random_hereditary(g, rng)
    s1 = saturated_closure(g, h1)
    # idempotent
    assert saturated_closure(g, s1).members == s1.members
    # extensive
    assert h1.members <= s1.members
    # monotone
    union = hereditary_closure(g, h1.members | h2.members)
    assert s1.members <= saturated_closure(g, union).members
    # closure of intersection = intersection of closures
    inter = HereditarySet(g, h1.members & h2.members)
    assert inter.is_hereditary
    lhs = saturated_closure(g, inter).members
    rhs = saturated_closure(g, h1).members & saturated_closure(g, h2).members
    assert lhs == rhs
