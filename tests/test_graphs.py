import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from lpa.classify import x_decomposition
from lpa.graphs import (
    INFINITE,
    Edge,
    Graph,
    GraphError,
    connects_to,
    count_paths_into,
    enumerate_paths_into,
    make_cycle,
    parse_graph,
    simple_cycles,
    tree,
)
from corpus import graph
from references import (
    graph_documents,
    json_values,
    random_graphs,
    ref_parse_graph,
    wrong_fields,
)


# -- parsing -----------------------------------------------------------------


def test_parse_loop():
    g = graph("g_loop")
    assert len(g.vertices) == 1 and len(g.edges) == 1


def test_parse_line3():
    g = graph("g_line3")
    assert len(g.vertices) == 3 and len(g.edges) == 2


def test_parse_dangling_endpoint_names_token():
    doc = {"vertices": ["a"], "edges": [{"id": "e", "src": "a", "dst": "b"}]}
    with pytest.raises(GraphError, match="b"):
        parse_graph(json.dumps(doc))


def test_parse_duplicate_vertex_names_token():
    doc = {"vertices": ["a", "a"], "edges": []}
    with pytest.raises(GraphError, match="a"):
        parse_graph(json.dumps(doc))


def test_parse_duplicate_edge_names_token():
    doc = {
        "vertices": ["a"],
        "edges": [
            {"id": "e", "src": "a", "dst": "a"},
            {"id": "e", "src": "a", "dst": "a"},
        ],
    }
    with pytest.raises(GraphError, match="e"):
        parse_graph(json.dumps(doc))


def test_parse_malformed_document():
    with pytest.raises(GraphError):
        parse_graph("{not json")


def test_parse_empty_vertex_set_rejected():
    with pytest.raises(GraphError):
        parse_graph(json.dumps({"vertices": [], "edges": []}))


def test_declared_order_preserved():
    doc = {"vertices": ["b", "a"], "edges": []}
    assert parse_graph(json.dumps(doc)).vertices == ("b", "a")


def parse_outcome(parse, text):
    """The graph a parser builds from text, or the message of its GraphError."""
    try:
        return parse(text)
    except GraphError as exc:
        return f"GraphError: {exc}"


@given(
    st.one_of(
        graph_documents().map(json.dumps),
        graph_documents(strict=False).map(json.dumps),
        wrong_fields(),
        json_values.filter(lambda v: not isinstance(v, dict)).map(json.dumps),
    )
)
@settings(max_examples=300, deadline=None)
def test_parse_matches_reference(text):
    """The one-pass edge read accepts what the set-of-keys parser accepted,
    builds the same graph, and rejects the rest with the same message."""
    assert parse_outcome(parse_graph, text) == parse_outcome(ref_parse_graph, text)


MALFORMED = "malformed edge record"
NOT_STRINGS = "edge id, src and dst must be strings, the id nonempty"
MALFORMED_EDGE_RECORDS = {
    "list": (["e", "a", "a"], MALFORMED),
    "string": ("e", MALFORMED),
    "number": (1, MALFORMED),
    "null": (None, MALFORMED),
    "no id": ({"src": "a", "dst": "a"}, MALFORMED),
    "no src": ({"id": "e", "dst": "a"}, MALFORMED),
    "no dst": ({"id": "e", "src": "a"}, MALFORMED),
    "int id": ({"id": 1, "src": "a", "dst": "a"}, NOT_STRINGS),
    "list src": ({"id": "e", "src": ["a"], "dst": "a"}, NOT_STRINGS),
    "null dst": ({"id": "e", "src": "a", "dst": None}, NOT_STRINGS),
    "bool src": ({"id": "e", "src": True, "dst": "a"}, NOT_STRINGS),
    "empty id": ({"id": "", "src": "a", "dst": "a"}, NOT_STRINGS),
}


@pytest.mark.parametrize("case", MALFORMED_EDGE_RECORDS)
def test_parse_rejects_malformed_edge_record(case):
    record, message = MALFORMED_EDGE_RECORDS[case]
    text = json.dumps({"vertices": ["a"], "edges": [{"id": "f", "src": "a", "dst": "a"}, record]})
    with pytest.raises(GraphError) as exc:
        parse_graph(text)
    assert str(exc.value) == f"{message}: {record!r}"
    assert parse_outcome(ref_parse_graph, text) == f"GraphError: {exc.value}"


# -- reachability ------------------------------------------------------------


def test_tree_sink():
    assert tree(graph("g_line3"), "v3") == {"v3"}


def test_tree_toeplitz():
    assert tree(graph("g_toeplitz"), "u") == {"u", "v"}


def test_tree_ext2():
    assert tree(graph("g_ext2"), "w") == {"u", "w"}


def test_tree_unknown_vertex():
    with pytest.raises(GraphError):
        tree(graph("g_loop"), "nope")


def test_connects_to_examples():
    assert connects_to(graph("g_toeplitz"), "u", {"v"})
    assert connects_to(graph("g_loop"), "v", {"v"})
    assert not connects_to(graph("g_cwe"), "z", {"w"})


@given(random_graphs())
@settings(max_examples=100, deadline=None)
def test_tree_reflexive_and_transitive(g):
    for v in g.vertices:
        t = tree(g, v)
        assert v in t
        for w in t:
            assert tree(g, w) <= t


# -- cycles ------------------------------------------------------------------


def test_simple_cycles_acyclic():
    assert simple_cycles(graph("g_line3")) == []


def test_simple_cycles_ext2():
    cs = [c.edges for c in simple_cycles(graph("g_ext2"))]
    assert cs == [("e",), ("f", "g")]


def test_simple_cycles_r2():
    cs = [c.edges for c in simple_cycles(graph("g_r2"))]
    assert cs == [("e1",), ("e2",)]


def test_make_cycle_canonical_rotation():
    g = graph("g_ext2")
    c = make_cycle(g, ("g", "f"))
    assert c.edges == ("f", "g") and c.base == "u"


def test_make_cycle_rejects_non_cycle():
    with pytest.raises(GraphError):
        make_cycle(graph("g_line3"), ("e1",))


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_simple_cycles_each_once_and_canonical(g):
    cs = simple_cycles(g)
    assert len({c.edges for c in cs}) == len(cs)
    for c in cs:
        for u in c.vertex_set:
            assert make_cycle(g, c.rotation_at(u)).edges == c.edges


def test_cycle_exits_examples():
    (loop,) = x_decomposition(graph("g_loop")).cycles
    assert not loop.has_exits
    (toeplitz,) = x_decomposition(graph("g_toeplitz")).cycles
    assert toeplitz.has_exits  # the edge f
    ce, _cfg = x_decomposition(graph("g_ext2")).cycles
    assert ce.cycle.edges == ("e",) and ce.has_exits  # the edge f


# -- path counting -----------------------------------------------------------


def test_count_paths_line3():
    assert count_paths_into(graph("g_line3"), {"v3"}) == 3


def test_count_paths_toeplitz_infinite():
    assert count_paths_into(graph("g_toeplitz"), {"v"}) is INFINITE


def test_count_paths_loop_forbidden():
    assert count_paths_into(graph("g_loop"), {"v"}, {"c"}) == 1


def test_count_paths_unknown_id():
    with pytest.raises(GraphError):
        count_paths_into(graph("g_loop"), {"nope"})


@given(random_graphs(max_vertices=4, max_edges=6), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_count_paths_matches_enumeration(g, salt):
    rng = random.Random(salt)
    targets = frozenset(v for v in g.vertices if rng.random() < 0.5)
    forbidden = frozenset(e.id for e in g.edges if rng.random() < 0.3)
    n = count_paths_into(g, targets, forbidden)
    if n is not INFINITE:
        assert n == len(enumerate_paths_into(g, targets, forbidden))


def test_graph_requires_known_endpoints():
    with pytest.raises(GraphError):
        Graph(["a"], [Edge("e", "a", "zzz")])
