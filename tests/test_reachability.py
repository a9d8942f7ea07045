"""The reachability index against the implementations it replaced.

The references below are the earlier direct computations: a fresh search
per tree, all-pairs tree intersections, inclusion-exclusion for the wrap
count, the saturation fixpoint, a Kahn pass for infinite entry paths, and
cycle enumeration and a closure per vertex for Condition (L).  They are
kept here and in `references.py` (the tree search, the path count by a
Kahn sort and the classification read from every cycle), off the
production path, as oracles.
"""

import random
import sys
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import lpa.classify
import lpa.hereditary
from lpa.classify import (
    ClassificationReport,
    CycleInfo,
    PisCertificate,
    ideal_structure,
    is_purely_infinite_simple,
    line_points,
    prime_trichotomy,
    sim_classes,
    x_decomposition,
)
from lpa.graphs import (
    INFINITE,
    Edge,
    Graph,
    count_paths_into,
    simple_cycles,
)
from lpa.hereditary import (
    EntryPathSet,
    HereditarySet,
    entry_paths,
    hereditary_closure,
    is_dense_ideal,
    saturated_closure,
)
from corpus import graph
from references import (
    chained_graphs,
    connects_to,
    cycle_vertices,
    cycle_with_tail,
    dense_graphs,
    disjoint_union,
    line,
    make_cycle,
    named_report,
    random_graphs,
    ref_count_paths_into,
    ref_extreme_classes,
    ref_not_prime_witness,
    ref_tree,
    ref_x_decomposition,
    rose,
    sparse,
    tree,
    union_find_classes,
)
from test_acceptance import resolve_vertex


def ladder(n):
    """n vertices declared source-first, v_i -> v_{i+1} by two edges."""
    vs = [f"v{i:04d}" for i in range(n)]
    es = [Edge(f"{k}{i}", vs[i], vs[i + 1]) for i in range(n - 1) for k in "ab"]
    return Graph(vs, es)


def shuffled_graph(seed):
    """10 to 14 vertices whose names are shuffled, so that lexicographic
    order (v10 < v2) and declared order differ.  Every vertex has an edge,
    so every vertex reaches a cycle; a few more edges make exits."""
    rng = random.Random(seed)
    n = rng.randint(10, 14)
    vs = [f"v{i}" for i in range(n)]
    rng.shuffle(vs)
    es = [Edge(f"e{i}", v, rng.choice(vs)) for i, v in enumerate(vs)]
    es += [Edge(f"f{j}", rng.choice(vs), rng.choice(vs)) for j in range(rng.randint(0, 4))]
    if rng.random() < 0.3:  # a sink, dropping the edges out of it
        sink = rng.choice(vs)
        es = [e for e in es if e.src != sink]
    return Graph(vs, es)


graphs = st.one_of(
    random_graphs(7, 12),
    st.integers(1, 6).map(rose),
    st.integers(1, 8).map(cycle_with_tail),
)
shuffled_graphs = st.integers(0, 10**6).map(shuffled_graph)


# -- reference implementations ----------------------------------------------------


def ref_simple_cycles(g):
    found = []
    for start in sorted(g.vertices):
        def walk(at, path, used):
            for e in g.out_edges(at):
                if e.dst == start:
                    found.append(make_cycle(g, path + [e.id]))
                elif e.dst > start and e.dst not in used:
                    used.add(e.dst)
                    path.append(e.id)
                    walk(e.dst, path, used)
                    path.pop()
                    used.remove(e.dst)

        walk(start, [], {start})
    found.sort(key=lambda c: (len(c.edges), c.base, c.edges))
    return found


def ref_cycle_vertices(g):
    return frozenset(
        v for v in g.vertices if any(v in ref_tree(g, e.dst) for e in g.out_edges(v))
    )


def ref_line_points(g):
    cyc = ref_cycle_vertices(g)
    return frozenset(
        v
        for v in g.vertices
        if not (ref_tree(g, v) & cyc)
        and not any(len(g.out_edges(w)) >= 2 for w in ref_tree(g, v))
    )


def ref_wrap_count(g, c):
    """Inclusion-exclusion over the avoided edge subsets of c."""
    assert len(c.edges) <= 8, "2^|c| path counts: keep the reference to short cycles"
    edges = sorted(c.edge_set)
    for e in edges:
        if ref_count_paths_into(g, c.vertex_set, {e}) is INFINITE:
            return INFINITE
    total = 0
    for r in range(1, len(edges) + 1):
        sign = 1 if r % 2 == 1 else -1
        for subset in combinations(edges, r):
            total += sign * ref_count_paths_into(g, c.vertex_set, subset)
    return total


def cycle_exits(g, c):
    """Edges leaving the cycle: source on the cycle, edge not in it."""
    return frozenset(
        e.id for v in c.vertex_set for e in g.out_edges(v) if e.id not in c.edge_set
    )


def ref_classify_cycles(g):
    infos = []
    for c in ref_simple_cycles(g):
        has_exits = bool(cycle_exits(g, c))
        reachable = frozenset().union(*(ref_tree(g, v) for v in c.vertex_set))
        is_extreme = has_exits and all(ref_tree(g, w) & c.vertex_set for w in reachable)
        wrap_count = ref_wrap_count(g, c)
        infos.append(
            CycleInfo(
                cycle=c,
                has_exits=has_exits,
                is_extreme=is_extreme,
                in_S=not has_exits and wrap_count is not INFINITE,
                entry_count=ref_count_paths_into(g, c.vertex_set, c.edge_set),
                wrap_count=wrap_count,
            )
        )
    return infos


def ref_sim_classes(g):
    verts = list(g.vertices)
    trees = [ref_tree(g, v) for v in verts]
    bifs = {v for v in verts if len(g.out_edges(v)) >= 2}
    cyc = ref_cycle_vertices(g)
    related = []
    for i, w in enumerate(verts):
        if w in cyc:
            related += [(i, verts.index(u)) for u in trees[i]]
    for i, u in enumerate(verts):
        for j, v in enumerate(verts):
            if u < v and (v in trees[i] or u in trees[j]) and not ((trees[i] | trees[j]) & bifs):
                related.append((i, j))
    classes = [frozenset(verts[i] for i in idxs) for idxs in union_find_classes(len(verts), related)]
    classes.sort(key=lambda c: min(map(g.vertices.index, c)))
    return classes


def ref_hereditary_closure(g, X):
    return HereditarySet(g, frozenset().union(*(ref_tree(g, v) for v in X)))


def ref_is_saturated(g, members):
    """No vertex outside `members` has edges, all of them landing inside."""
    for v in g.vertices:
        out = g.out_edges(v)
        if v not in members and out and all(e.dst in members for e in out):
            return False
    return True


def ref_saturated_closure(g, H):
    """The saturation step repeated over all vertices until a pass adds none."""
    H.require_hereditary()
    members = set(H.members)
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            out = g.out_edges(v)
            if v not in members and out and all(e.dst in members for e in out):
                members.add(v)
                changed = True
    return HereditarySet(g, frozenset(members))


def ref_entry_paths(g, H):
    outside_reaching = {
        v for v in g.vertices if v not in H.members and ref_tree(g, v) & H.members
    }
    indeg = {v: 0 for v in outside_reaching}
    succ = {v: [] for v in outside_reaching}
    for e in g.edges:
        if e.src in outside_reaching and e.dst in outside_reaching:
            succ[e.src].append(e.dst)
            indeg[e.dst] += 1
    queue = [v for v in outside_reaching if indeg[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for w in succ[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if seen != len(outside_reaching):
        return EntryPathSet(H, INFINITE)
    paths = []

    def walk(at, acc):
        for e in g.out_edges(at):
            if e.dst in H.members:
                paths.append(acc + (e.id,))
            elif e.dst in outside_reaching:
                walk(e.dst, acc + (e.id,))

    for v in g.vertices:
        if v in outside_reaching:
            walk(v, ())
    paths.sort(key=lambda p: (len(p), p))
    return EntryPathSet(H, tuple(paths))


def ref_is_purely_infinite_simple(g):
    """Condition (L) by enumerating the simple cycles and their exits."""
    cyc = ref_cycle_vertices(g)
    for v in g.vertices:
        if not ref_tree(g, v) & cyc:
            return PisCertificate(False, "connects-to-cycle", v)
    for c in ref_simple_cycles(g):
        if not cycle_exits(g, c):
            return PisCertificate(False, "exit", c.base)
    everything = frozenset(g.vertices)
    for v in g.vertices:
        if ref_saturated_closure(g, ref_hereditary_closure(g, {v})).members != everything:
            return PisCertificate(False, "lattice", v)
    return PisCertificate(True)


def ref_resolve_vertex(g, v, H):
    def expand(u):
        if u in H.members:
            return [()]
        return [(e.id,) + rest for e in g.out_edges(u) for rest in expand(e.dst)]

    return expand(v)


# -- equivalence ---------------------------------------------------------------------


@given(graphs, st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_trees_and_connectivity_match_reference(g, salt):
    rng = random.Random(salt)
    for v in g.vertices:
        assert tree(g, v) == ref_tree(g, v)
        hs = {w for w in g.vertices if rng.random() < 0.3}
        assert connects_to(g, v, hs) == bool(ref_tree(g, v) & hs)
        union = g.vertices_of(g.tree_union_bits(g.vertex_bits(hs)))
        assert union == frozenset().union(*(ref_tree(g, w) for w in hs))
    assert cycle_vertices(g) == ref_cycle_vertices(g)
    assert g.vertices_of(line_points(g)) == ref_line_points(g)


@given(graphs)
@settings(max_examples=150, deadline=None)
def test_classes_and_primeness_match_reference(g):
    assert [g.vertices_of(c) for c in sim_classes(g)] == ref_sim_classes(g)
    witness = ref_not_prime_witness(g)
    rep = x_decomposition(g)
    pt = prime_trichotomy(g, rep, ideal_structure(g, rep))
    if witness is None:
        assert pt.kind != "not-prime"
    else:
        assert (pt.kind, pt.witness) == ("not-prime", witness)


@given(graphs)
@settings(max_examples=150, deadline=None)
def test_cycle_infos_match_reference(g):
    """Every CycleInfo field, the wrap count against inclusion-exclusion."""
    assert simple_cycles(g) == ref_simple_cycles(g)
    rep = x_decomposition(g)
    infos = ref_classify_cycles(g)
    assert list(rep.cycles) == infos
    assert list(named_report(g, rep).x_ec) == ref_extreme_classes(g, infos)


@given(st.one_of(graphs, dense_graphs(), chained_graphs()))
@settings(max_examples=150, deadline=None)
def test_x_decomposition_matches_reference(g):
    """Every report field against the route through every cycle: the
    P-sets as unions of cycle vertex sets, the S cycles tested against
    each class, and the extreme classes joined by their trees."""
    rep = named_report(g, x_decomposition(g))
    expected = ref_x_decomposition(g, ref_classify_cycles(g))
    for name in ClassificationReport._fields:
        assert getattr(rep, name) == getattr(expected, name), name
    # the parts the reference reads from lpa, against their own references
    assert rep.p_l == ref_line_points(g)
    assert list(rep.sim_classes) == ref_sim_classes(g)
    for xc in rep.x_classes:
        closure = ref_saturated_closure(g, ref_hereditary_closure(g, xc.members))
        assert xc.closure == closure.members
        assert xc.entry == ref_entry_paths(g, closure)


@given(graphs, st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_hereditary_readers_match_reference(g, salt):
    rng = random.Random(salt)
    seed = {v for v in g.vertices if rng.random() < 0.4}
    h = hereditary_closure(g, seed)
    assert h == ref_hereditary_closure(g, seed)
    assert entry_paths(g, h) == ref_entry_paths(g, h)
    assert is_dense_ideal(g, h) == all(ref_tree(g, v) & h.members for v in g.vertices)
    if h.members:
        for v in saturated_closure(g, h).members:
            assert resolve_vertex(g, v, h) == ref_resolve_vertex(g, v, h)


@given(st.one_of(graphs, shuffled_graphs), st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_saturation_and_entry_paths_match_reference(g, salt):
    rng = random.Random(salt)
    h = hereditary_closure(g, {v for v in g.vertices if rng.random() < 0.3})
    sat = saturated_closure(g, h)
    assert sat == ref_saturated_closure(g, h)
    assert sat.is_hereditary and ref_is_saturated(g, sat.members)
    assert entry_paths(g, h) == ref_entry_paths(g, h)
    assert entry_paths(g, sat) == ref_entry_paths(g, sat)


@given(st.one_of(graphs, shuffled_graphs))
@settings(max_examples=200, deadline=None)
def test_condition_l_matches_reference(g):
    """Verdict, failing condition and witness, also when the least vertex
    of an exitless cycle is not its first in declared order."""
    assert is_purely_infinite_simple(g) == ref_is_purely_infinite_simple(g)
    for ci in x_decomposition(g).cycles:
        assert ci.has_exits == bool(cycle_exits(g, ci.cycle))


@given(graphs)
@settings(max_examples=100, deadline=None)
def test_components_and_trees_match_networkx(g):
    nx = pytest.importorskip("networkx")
    G = nx.MultiDiGraph()
    G.add_nodes_from(g.vertices)
    G.add_edges_from((e.src, e.dst) for e in g.edges)
    sccs = {frozenset(c) for c in nx.strongly_connected_components(G)}
    assert {g.vertices_of(g.component_bits(v)) for v in g.vertices} == sccs
    for v in g.vertices:
        assert tree(g, v) == nx.descendants(G, v) | {v}
    on_cycles = {v for c in sccs if len(c) > 1 for v in c} | set(nx.nodes_with_selfloops(G))
    assert cycle_vertices(g) == on_cycles


def ref_components(g):
    """Each vertex's strongly connected component: the vertices it and
    they reach both ways."""
    trees = {v: ref_tree(g, v) for v in g.vertices}
    return {v: frozenset(u for u in trees[v] if v in trees[u]) for v in g.vertices}


@given(st.one_of(graphs, chained_graphs()), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_ancestors_match_transposed_trees(g, salt):
    rng = random.Random(salt)
    trees = {v: ref_tree(g, v) for v in g.vertices}
    for v in g.vertices:
        ancestors = frozenset(u for u in g.vertices if v in trees[u])
        assert g.vertices_of(g.ancestor_bits(g.vertex_bits({v}))) == ancestors
    hs = {w for w in g.vertices if rng.random() < 0.3}
    bits = g.vertex_bits(hs)
    assert g.vertices_of(g.ancestor_bits(bits)) == {u for u in g.vertices if trees[u] & hs}
    assert g.vertices_of(g.tree_union_bits(bits)) == frozenset().union(*(trees[w] for w in hs))


@given(st.one_of(graphs, chained_graphs()))
@settings(max_examples=150, deadline=None)
def test_path_counts_match_count_paths_into(g):
    """P(v) for every vertex, INFINITE included, and the per-component
    facts it is read from: the members and the paths entering, against
    the Kahn-sort path count that `count_paths_into` was."""
    component = ref_components(g)
    for v in g.vertices:
        assert g.path_count(v) == ref_count_paths_into(g, {v})
        k = component[v]
        assert g.vertices_of(g.component_bits(v)) == k
        entering = [ref_count_paths_into(g, {e.src}) for e in g.edges if e.dst in k and e.src not in k]
        inflow = INFINITE if INFINITE in entering else sum(entering)
        assert g.component_inflow(v) == inflow


@given(st.one_of(graphs, dense_graphs(), chained_graphs()))
@settings(max_examples=200, deadline=None)
def test_component_lemmas_hold(g):
    """The two facts `x_decomposition` reads per component K, by brute
    force: K has exactly |c| inner edges iff c is K's only simple cycle,
    and a cycle of K has exits iff K has a bifurcation."""
    component = ref_components(g)
    cycles = ref_simple_cycles(g)
    for k in set(component.values()):
        inner = sum(e.src in k and e.dst in k for e in g.edges)
        held = [c for c in cycles if c.base in k]
        assert bool(inner) == bool(held)
        for c in held:
            assert (inner == len(c.edges)) == (held == [c])
    bifurcations = {v for v in g.vertices if len(g.out_edges(v)) >= 2}
    for ci in x_decomposition(g).cycles:
        assert ci.has_exits == bool(component[ci.cycle.base] & bifurcations)


@given(st.one_of(graphs, chained_graphs()))
@settings(max_examples=150, deadline=None)
def test_cycle_counts_match_reference_on_chained_graphs(g):
    """Entry and wrap counts of every cycle against the general count and
    inclusion-exclusion, where cycles of one part feed those of the next."""
    for ci in x_decomposition(g).cycles:
        c = ci.cycle
        assert ci.entry_count == ref_count_paths_into(g, c.vertex_set, c.edge_set)
        assert ci.wrap_count == ref_wrap_count(g, c)


@given(st.one_of(dense_graphs(), chained_graphs()))
@settings(max_examples=200, deadline=None)
def test_entry_count_is_infinite_exactly_when_a_cycle_feeds_or_partners_c(g):
    """Every entry count against the general count, and the rule it is
    read from, by brute force: INFINITE exactly when a cycle outside c's
    component K reaches K, or a simple cycle of K shares no edge with c."""
    cycles = ref_simple_cycles(g)
    component = ref_components(g)
    for ci in x_decomposition(g).cycles:
        c = ci.cycle
        k = component[c.base]
        assert ci.entry_count == ref_count_paths_into(g, c.vertex_set, c.edge_set)
        fed = any(d.base not in k and c.base in ref_tree(g, d.base) for d in cycles)
        partnered = any(d.base in k and not d.edge_set & c.edge_set for d in cycles)
        assert (ci.entry_count is INFINITE) == (fed or partnered)


@given(st.one_of(graphs, dense_graphs()))
@settings(max_examples=150, deadline=None)
def test_simple_cycles_are_built_from_the_search(g):
    """The search path is the canonical rotation, so no cycle is checked
    and rotated again, as `make_cycle` does: no edge is looked up by id."""
    calls = []
    with mock.patch.object(Graph, "edge", counted(calls, Graph.edge)):
        found = simple_cycles(g)
    assert calls == []
    assert found == ref_simple_cycles(g)


# -- work and depth ------------------------------------------------------------------


def cycle_counts_with_calls(g):
    """The cycles of x_decomposition(g) and the target sets of its
    count_paths_into calls."""
    calls = []
    with mock.patch.object(lpa.classify, "count_paths_into", counted(calls, count_paths_into)):
        infos = x_decomposition(g).cycles
    return infos, [set(targets) for _g, targets, _forbidden in calls]


def test_entry_count_of_a_lone_cycle_is_read_from_the_index():
    """C_3 under a tail, and a loop fed by another loop: the component is
    exactly c, or a cycle outside it reaches it.  No path count runs."""
    infos, calls = cycle_counts_with_calls(cycle_with_tail(3))
    assert [(ci.entry_count, ci.wrap_count) for ci in infos] == [(4, 12)]
    assert calls == []
    fed = Graph(["u", "v"], [Edge("a", "u", "u"), Edge("b", "u", "v"), Edge("c", "v", "v")])
    infos, calls = cycle_counts_with_calls(fed)
    assert [(ci.cycle.base, ci.entry_count, ci.wrap_count) for ci in infos] == [
        ("u", 1, 1),
        ("v", INFINITE, INFINITE),
    ]
    assert calls == []


def test_entry_count_of_an_edge_disjoint_pair_is_read_from_the_cycle_list():
    """u <-> v with a loop at u: the loop and the 2-cycle share no edge,
    so each makes the other's entry count INFINITE, though the component
    holds more than either.  No path count runs."""
    g = Graph(["u", "v"], [Edge("a", "u", "v"), Edge("b", "v", "u"), Edge("l", "u", "u")])
    infos, calls = cycle_counts_with_calls(g)
    assert [(ci.cycle.edges, ci.entry_count, ci.wrap_count) for ci in infos] == [
        (("l",), INFINITE, INFINITE),
        (("a", "b"), INFINITE, INFINITE),
    ]
    assert calls == []


def test_classify_cycles_reads_each_component_once():
    """u <-> v with a loop at u: two cycles in one component, whose inflow
    and tree `x_decomposition` looks up once, not once per cycle."""
    g = Graph(["u", "v"], [Edge("a", "u", "v"), Edge("b", "v", "u"), Edge("l", "u", "u")])
    inflows, trees = [], []
    inflow, tree_bits = Graph.component_inflow, Graph.tree_bits
    with mock.patch.object(Graph, "component_inflow", counted_from(inflows, inflow, x_decomposition)), \
            mock.patch.object(Graph, "tree_bits", counted_from(trees, tree_bits, x_decomposition)):
        x_decomposition(g)
    assert len(inflows) == len(trees) == 1


def test_campaign_counts_paths_only_for_finite_entry_counts(campaign500):
    """Of the campaign500 graphs' cycles, only the 14 with a finite entry
    count in a component that holds more than the cycle run a path
    count."""
    counts = []

    def counting(*args):
        counts.append(count_paths_into(*args))
        return counts[-1]

    with mock.patch.object(lpa.classify, "count_paths_into", counting):
        for g in campaign500:
            x_decomposition(g)
    assert len(counts) == 14
    assert INFINITE not in counts


def test_entry_count_falls_back_when_the_component_holds_more():
    """u <-> v with a detour u -> w -> v: the component {u, v, w} holds
    both cycles, so each entry count is a path count on the graph without
    the cycle's edges, and each wrap count is INFINITE."""
    g = Graph(
        ["u", "v", "w"],
        [Edge("a", "u", "v"), Edge("b", "v", "u"), Edge("x", "u", "w"), Edge("y", "w", "v")],
    )
    infos, calls = cycle_counts_with_calls(g)
    assert [(ci.cycle.edges, ci.entry_count, ci.wrap_count) for ci in infos] == [
        (("a", "b"), 4, INFINITE),
        (("x", "y", "b"), 4, INFINITE),
    ]
    assert calls == [{"u", "v"}, {"u", "v", "w"}]


@pytest.mark.parametrize("seed", range(8))
def test_sparse_graphs_classify_from_the_index(seed):
    """On 100 vertices and 125 edges: the closures, entry paths and the
    density test look up no tree, and the only path counts are of cycles
    whose component holds another edge (checked against the component
    found from the reference trees)."""
    g = sparse(seed)
    sets = [hereditary_closure(g, g.vertices_of(cls)) for cls in sim_classes(g)]
    sets += [saturated_closure(g, h) for h in sets]
    lookups = []
    tree_bits = Graph.tree_bits
    with mock.patch.object(Graph, "tree_bits", counted(lookups, tree_bits)):
        for h in sets:
            saturated_closure(g, h)
            entry_paths(g, h)
            is_dense_ideal(g, h)
    assert lookups == []

    component = ref_components(g)
    crowded = [
        set(c.vertex_set)
        for c in simple_cycles(g)
        if sum(e.src in component[c.base] and e.dst in component[c.base] for e in g.edges) > len(c.edges)
    ]
    calls = []
    with mock.patch.object(lpa.classify, "count_paths_into", counted(calls, count_paths_into)):
        rep = x_decomposition(g)
        prime_trichotomy(g, rep, ideal_structure(g, rep))
    assert all(set(targets) in crowded for _g, targets, *_ in calls)
    assert len(calls) <= len(crowded)



def test_wrap_count_is_closed_form():
    """At most |c| + 2 path counts per cycle: no subset loop."""
    g = cycle_with_tail(12)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return count_paths_into(*args, **kwargs)

    with mock.patch.object(lpa.classify, "count_paths_into", counting):
        rep = x_decomposition(g)
    (ci,) = rep.cycles
    assert ci.wrap_count == 12 * ci.entry_count == 156
    assert len(calls) <= len(ci.cycle.edges) + 2


def counted(calls, fn):
    """fn, appending the arguments of each call to `calls`."""

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return counting


def counted_from(calls, fn, caller):
    """fn, appending to `calls` the arguments of each call made from the
    body of the function `caller` itself, not from the helpers it calls."""

    def counting(*args, **kwargs):
        if sys._getframe(1).f_code is caller.__code__:
            calls.append(args)
        return fn(*args, **kwargs)

    return counting


def test_condition_l_builds_no_closures(count_instances):
    """A ring of 5 vertices, each with a loop, is purely infinite simple, so
    every vertex reaches the lattice test; no closure is built for it, and
    no hereditary set at all."""
    vs = [f"v{i}" for i in range(5)]
    es = [Edge(f"e{i}", v, v) for i, v in enumerate(vs)]
    es += [Edge(f"f{i}", v, vs[(i + 1) % 5]) for i, v in enumerate(vs)]
    g = Graph(vs, es)
    closures = []
    sets = count_instances(HereditarySet)
    with mock.patch.object(lpa.classify, "saturated_closure", counted(closures, saturated_closure)):
        cert = is_purely_infinite_simple(g)
    assert cert == PisCertificate(True)
    assert closures == []
    assert sets == [0]


def test_ideal_structure_computes_entry_paths_once_per_class():
    """Two copies of g_ext2 under a tail vertex: two extreme classes, each
    with finite entry paths, so each gets a restriction graph as well.
    Each class's T(c^0) is the closure of an X-class, so `x_decomposition`
    enumerates its F_E(H) and `ideal_structure` reuses it."""
    g = disjoint_union(graph("g_ext2"), graph("g_ext2"))
    g = Graph(g.vertices + ("t",), g.edges + (Edge("a", "t", "u"), Edge("b", "t", "u'")))
    calls = []
    counting = counted(calls, entry_paths)
    with mock.patch.object(lpa.classify, "entry_paths", counting), \
            mock.patch.object(lpa.hereditary, "entry_paths", counting):
        rep = x_decomposition(g)
        ideal = ideal_structure(g, rep)
    assert len(rep.x_ec) == 2
    assert [x.certificate.purely_infinite_simple for x in ideal.extreme] == [True, True]
    assert [h.members for _g, h in calls] == [g.vertices_of(xc.closure) for xc in rep.x_classes]
    assert {g.vertices_of(xc.vertices) for xc in rep.x_ec} == {h.members for _g, h in calls}


def test_saturated_closure_is_closed_form():
    """At most 2|V| out_edges calls (the two HereditarySet checks): no
    rescanning pass per added vertex on a ladder saturated from its sink."""
    g = ladder(1000)
    h = hereditary_closure(g, {g.vertices[-1]})
    calls = 0
    out_edges = Graph.out_edges

    def counting(self, v):
        nonlocal calls
        calls += 1
        return out_edges(self, v)

    with mock.patch.object(Graph, "out_edges", counting):
        sat = saturated_closure(g, h)
    assert sat.members == frozenset(g.vertices)
    assert calls <= 2 * len(g.vertices)


def test_deep_graphs_need_no_recursion():
    n = 600
    g = line(n)
    ring = Graph(g.vertices, g.edges + (Edge("back", g.vertices[-1], g.vertices[0]),))
    sink = HereditarySet(g, frozenset({g.vertices[-1]}))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        (c,) = simple_cycles(ring)
        paths = entry_paths(g, sink).paths
        resolved = resolve_vertex(g, g.vertices[0], sink)
    finally:
        sys.setrecursionlimit(limit)
    assert len(c.edges) == n
    assert len(paths) == n - 1 and len(paths[-1]) == n - 1
    assert resolved == [tuple(e.id for e in g.edges)]
