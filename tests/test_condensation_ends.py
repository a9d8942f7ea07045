"""The reads from the condensation's ends against the steps they replaced.

The reachability index records the vertices of the components that no
edge leaves (`ends`) and of those that no edge enters (`starts`), and the
unions read those members first.  Each replaced step is kept in
`references.py`: the index built with a stack scan per component, the
unions read lowest member first, the line points scanned tree by tree and
the ~ classes linked edge by edge.  Here they are compared on the
fixtures, campaign100, every multigraph with n <= 4 vertices and m <= 5
edges, `sparse(0..9)`, K_2..K_6, and lines declared either way and no-exit
cycles with a tail up to 300 vertices.  The work counts check that a
hereditary set costs one read of the ancestor table per end component it
holds, on a line declared either way.  Primeness reads the ends too: the
trees meet pairwise exactly when there is one end component, and
`prime_trichotomy` agrees with the pairwise test, reading one tree on a
prime graph and finding the not-prime witness by two scans.  The
connects-to-cycle witness of `is_purely_infinite_simple`, read from the
ancestors of the cycle vertices, agrees with the scan tree by tree.  Both
are also compared on campaign500 and campaign100.
"""

import random
from unittest import mock

import pytest

from lpa.classify import (
    ideal_structure,
    is_purely_infinite_simple,
    line_points,
    prime_trichotomy,
    sim_classes,
    x_decomposition,
)
from lpa.graphs import Graph
from lpa.hereditary import HereditarySet, entry_paths
from lpa.reports import build_envelope
from references import (
    RefReachIndex,
    complete_digraph,
    cycle_with_tail,
    line,
    ref_cycle_reach_witness,
    ref_edge_filter_classes,
    ref_line_point_scan,
    ref_not_prime_witness,
    ref_union,
    small_multigraphs,
    sparse,
)
from test_reachability import counted

LADDER_SIZES = (1, 2, 3, 10, 100, 300)


def ladders():
    return (
        [line(n) for n in LADDER_SIZES]
        + [line(n, reverse=True) for n in LADDER_SIZES]
        + [cycle_with_tail(n - 1) for n in LADDER_SIZES if n > 1]
    )


def arguments(g, ref):
    """The bitsets the unions are tried on: the empty set and every vertex,
    each vertex alone, each tree (hereditary) and each ancestor set (closed
    under ancestors), the cycle vertices, the bifurcations and both, and a
    few seeded random subsets."""
    n = len(g.vertices)
    rng = random.Random(n)
    yield from (0, (1 << n) - 1, ref.cyclic, ref.bifurcations, ref.cyclic | ref.bifurcations)
    yield from (1 << i for i in range(n))
    yield from set(ref.trees)
    yield from set(ref.ancestors)
    for _ in range(5):
        yield rng.getrandbits(n)


def check(g):
    """What differs between g's index, unions, line points and ~ classes
    and their references, as a list of names."""
    idx, ref = g._reach(), RefReachIndex(g)
    diff = [name for name in RefReachIndex.__slots__ if getattr(idx, name) != getattr(ref, name)]
    components = {t & a for t, a in zip(ref.trees, ref.ancestors)}
    ends = sum(k for k in components if k in ref.trees)  # no edge leaves k: its tree is k
    starts = sum(k for k in components if k in ref.ancestors)  # no edge enters k
    if (idx.ends, idx.starts) != (ends, starts):
        diff.append("ends/starts")
    for bits in arguments(g, ref):
        if g.tree_union_bits(bits) != ref_union(ref.trees, bits):
            diff.append(("tree_union_bits", bits))
        if g.ancestor_bits(bits) != ref_union(ref.ancestors, bits):
            diff.append(("ancestor_bits", bits))
    if line_points(g) != ref_line_point_scan(g):
        diff.append("line_points")
    if sim_classes(g) != ref_edge_filter_classes(g):
        diff.append("sim_classes")
    return diff


def test_fixtures_and_campaign100_match_reference(fixture_graphs, campaign100):
    failed = [(g.to_document(), d) for g in [*fixture_graphs.values(), *campaign100] if (d := check(g))]
    assert failed == []


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_small_multigraph_matches_reference(n):
    failed = [(g.to_document(), d) for g in small_multigraphs(n, 5) if (d := check(g))]
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
    failed = [(g, d) for g in family() if (d := check(g))]
    assert failed == []


def test_ends_and_starts_of_the_ladders():
    """A line's one end is its sink and its one start its source, however
    it is declared; a no-exit cycle with a tail ends in the cycle and
    starts at the tail."""
    for reverse in (False, True):
        g = line(300, reverse)
        idx = g._reach()
        assert g.names_of(g.end_bits()) == ["v00299"]
        assert g.names_of(idx.starts) == ["v00000"]
    g = cycle_with_tail(299)
    assert g.vertices_of(g.end_bits()) == frozenset(g.vertices) - {"t"}
    assert g.names_of(g._reach().starts) == ["t"]


class CountingTable:
    """A per-vertex table that counts its reads."""

    def __init__(self, table):
        self.table, self.reads = table, 0

    def __getitem__(self, i):
        self.reads += 1
        return self.table[i]

    def __len__(self):
        return len(self.table)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_hereditary_ancestor_unions_read_one_entry_on_a_line(reverse):
    """On L_2000, declared either way, each `ancestor_bits` call that
    `build_envelope(verify=True)` makes on a nonempty hereditary set reads
    one entry of the ancestor table, that of the line's one end; the empty
    set reads none."""
    g = line(2000, reverse)
    idx = g._reach()
    idx.ancestors = table = CountingTable(idx.ancestors)
    ancestor_bits = Graph.ancestor_bits
    calls = []

    def counting(self, bits):
        before = table.reads
        out = ancestor_bits(self, bits)
        hereditary = not self.tree_union_bits(bits) & ~bits
        calls.append((bits, hereditary, table.reads - before))
        return out

    with mock.patch.object(Graph, "ancestor_bits", counting):
        build_envelope(g, verify=True).dumps()
    hereditary = [(bits != 0, reads) for bits, is_hereditary, reads in calls if is_hereditary]
    assert sum(nonempty for nonempty, _ in hereditary) >= 3
    assert all(reads == nonempty for nonempty, reads in hereditary)


def test_line_points_and_sim_classes_read_no_tree_table(fixture_graphs):
    """Neither reads a per-vertex tree through `tree_bits`."""
    graphs = [*fixture_graphs.values(), line(2000), line(2000, reverse=True), sparse(0)]
    with mock.patch.object(Graph, "tree_bits", side_effect=AssertionError) as trees:
        for g in graphs:
            line_points(g)
            sim_classes(g)
    assert trees.call_count == 0


def primeness_mismatches(g):
    """The primeness verdict and witness of `prime_trichotomy` against the
    pairwise search over the reference trees, and its tree reads: one on a
    prime graph, and otherwise one more for each vertex up to u, one for
    T(u), and one for each vertex up to v, for the witness (u, v)."""
    witness = ref_not_prime_witness(g)
    rep = x_decomposition(g)
    ideal = ideal_structure(g, rep)
    reads = []
    with mock.patch.object(Graph, "tree_bits", counted(reads, Graph.tree_bits)):
        pt = prime_trichotomy(g, rep, ideal)
    got = (pt.witness if pt.kind == "not-prime" else None, len(reads))
    if witness is None:
        want = (None, 1)
    else:
        u, v = map(g.vertices.index, witness)
        want = (witness, u + v + 4)
    return [] if got == want else [(got, want)]


def cycle_reach_mismatches(g):
    """The "connects-to-cycle" witness of `is_purely_infinite_simple`
    against the scan tree by tree."""
    cert = is_purely_infinite_simple(g)
    got = cert.witness if cert.failing_condition == "connects-to-cycle" else None
    want = ref_cycle_reach_witness(g)
    return [] if got == want else [(got, want)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_primeness_from_the_ends_on_every_small_multigraph(n):
    failed = [(g.to_document(), d) for g in small_multigraphs(n, 5) if (d := primeness_mismatches(g))]
    assert failed == []


def test_primeness_from_the_ends_on_the_ladders(fixture_graphs):
    graphs = [*fixture_graphs.values(), *ladders(), sparse(0), complete_digraph(4)]
    failed = [(g, d) for g in graphs if (d := primeness_mismatches(g))]
    assert failed == []


def test_primeness_from_the_ends_on_the_campaigns(campaign500, campaign100):
    failed = [(g, d) for g in campaign500 + campaign100 if (d := primeness_mismatches(g))]
    assert failed == []


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cycle_reach_from_the_ancestors_on_every_small_multigraph(n):
    failed = [(g.to_document(), d) for g in small_multigraphs(n, 5) if (d := cycle_reach_mismatches(g))]
    assert failed == []


def test_cycle_reach_from_the_ancestors_elsewhere(fixture_graphs, campaign500, campaign100):
    graphs = [*fixture_graphs.values(), *ladders(), *campaign500, *campaign100, sparse(0)]
    failed = [(g, d) for g in graphs if (d := cycle_reach_mismatches(g))]
    assert failed == []


def test_entry_paths_names_no_vertex_set(fixture_graphs):
    """`entry_paths` tests the edges' targets by their bits: it builds no
    frozenset of names, neither of the vertices that reach H nor of H."""
    for g in [*fixture_graphs.values(), line(50), sparse(1)]:
        for v in g.vertices:
            h = HereditarySet.from_bits(g, g.tree_bits(v))
            with mock.patch.object(Graph, "vertices_of", side_effect=AssertionError):
                entry_paths(g, h)
            assert h._members is None
