"""`count_paths_into` against the Kahn-sort count it replaced.

`count_paths_into` now reads `Graph.path_count` on one graph built from
the targets' ancestors, without the forbidden edges.  The count it was, a
Kahn sort of the graph the allowed edges span and a pass in reverse
topological order, is `references.ref_count_paths_into`.  Here they are
compared on seeded random target and forbidden sets over every multigraph
with n <= 4 vertices and m <= 5 edges, and on the fixtures, campaign100,
`sparse(0..9)`, K_2..K_6 and the L_n and C_n ladders, where each simple
cycle's own query (its vertices, its edges forbidden) is tried too.  The
errors match the reference's, text and order, and each call builds one
graph, on the targets' ancestors only.
"""

import random
from unittest import mock

import pytest

from lpa.graphs import Graph, GraphError, count_paths_into, simple_cycles
from references import (
    complete_digraph,
    cycle_with_tail,
    line,
    ref_count_paths_into,
    ref_tree,
    small_multigraphs,
    sparse,
)
from test_condensation_ends import ladders

RANDOM_QUERIES = 3  # seeded random (targets, forbidden) pairs per graph
MAX_CYCLE_QUERIES = 20  # the first simple cycles whose own query is tried


def queries(g, rng):
    """The (targets, forbidden) pairs tried on g: each vertex alone, the
    vertices and edges of its first simple cycles, and a few random sets,
    the targets never empty."""
    yield from (({v}, ()) for v in g.vertices)
    for c in simple_cycles(g)[:MAX_CYCLE_QUERIES]:
        yield c.vertex_set, c.edge_set
    for _ in range(RANDOM_QUERIES):
        targets = {v for v in g.vertices if rng.random() < 0.4} or {rng.choice(g.vertices)}
        yield targets, {e.id for e in g.edges if rng.random() < 0.3}


def mismatches(g, seed=0):
    """The queries on which `count_paths_into` and its reference differ,
    each with both answers."""
    return [
        (sorted(targets), sorted(forbidden), new, old)
        for targets, forbidden in queries(g, random.Random(seed))
        if (new := count_paths_into(g, targets, forbidden))
        != (old := ref_count_paths_into(g, targets, forbidden))
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_small_multigraph_matches_reference(n):
    failed = [
        (g.to_document(), d)
        for i, g in enumerate(small_multigraphs(n, 5))
        if (d := mismatches(g, seed=i))
    ]
    assert failed == []


def test_fixtures_and_campaign100_match_reference(fixture_graphs, campaign100):
    graphs = [*fixture_graphs.values(), *campaign100]
    failed = [(g.to_document(), d) for g in graphs if (d := mismatches(g))]
    assert failed == []


@pytest.mark.parametrize(
    "family",
    [
        pytest.param(lambda: [sparse(seed) for seed in range(10)], id="sparse"),
        pytest.param(lambda: [complete_digraph(n) for n in range(2, 7)], id="complete"),
        pytest.param(ladders, id="ladders"),
    ],
)
def test_graph_families_match_reference(family):
    failed = [(g, d) for g in family() if (d := mismatches(g))]
    assert failed == []


def test_empty_and_duplicate_targets():
    g = cycle_with_tail(3)
    for forbidden in ((), ("e1",), ("e1", "e1", "f")):
        assert count_paths_into(g, (), forbidden) == 0 == ref_count_paths_into(g, (), forbidden)
    for targets, forbidden in [(["v1", "v1"], ["e3"]), (["v2", "t", "v2"], ["e1", "e1"])]:
        assert count_paths_into(g, targets, forbidden) == ref_count_paths_into(g, targets, forbidden)
    assert count_paths_into(g, ["v1", "v1"], ["e3"]) == 2  # v1 and the tail's edge f


def raised(fn, *args):
    with pytest.raises(GraphError) as err:
        fn(*args)
    return str(err.value)


@pytest.mark.parametrize(
    "targets, forbidden",
    [
        (["nope"], []),
        (["v1", "nope"], ["e1"]),
        (["v1"], ["nope"]),
        (["v1"], ["e1", "nope"]),
        (["nope"], ["nope"]),  # the targets are checked first
    ],
)
def test_unknown_ids_raise_as_the_reference(targets, forbidden):
    g = cycle_with_tail(3)
    message = raised(count_paths_into, g, targets, forbidden)
    assert message == raised(ref_count_paths_into, g, targets, forbidden)
    assert message.startswith("unknown vertex" if "nope" in targets else "unknown edge")


def test_each_call_builds_one_graph_on_the_targets_ancestors(fixture_graphs, campaign100):
    """A nonempty query builds exactly one `Graph`, whose vertices all reach
    a target in g; an empty one builds none."""
    init = Graph.__init__
    built = []

    def recording(self, vertices, edges):
        vertices = tuple(vertices)
        built.append(vertices)
        init(self, vertices, edges)

    graphs = [*fixture_graphs.values(), *campaign100[:30], sparse(0), line(50), line(50, True)]
    for seed, g in enumerate(graphs):
        for targets, forbidden in queries(g, random.Random(seed)):
            ancestors = {u for u in g.vertices if ref_tree(g, u) & targets}
            built.clear()
            with mock.patch.object(Graph, "__init__", recording):
                count_paths_into(g, targets, forbidden)
            assert len(built) == 1
            assert set(built[0]) <= ancestors
        with mock.patch.object(Graph, "__init__", recording):
            built.clear()
            count_paths_into(g, (), ())
        assert built == []
