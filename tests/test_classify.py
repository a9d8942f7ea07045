import sys
from unittest import mock

import pytest
from hypothesis import given, settings

import lpa.classify
from lpa.classify import (
    ideal_structure,
    is_purely_infinite_simple,
    line_points,
    prime_trichotomy,
    sim_classes,
    x_decomposition,
)
from lpa.graphs import INFINITE, Cycle, Edge, Graph, InvariantError, count_paths_into
from lpa.hereditary import HereditarySet, entry_paths, restriction_graph
from lpa.reports import build_envelope
from corpus import FIXTURE_NAMES, graph
from references import (
    chained,
    complete_digraph,
    disjoint_union,
    named_report,
    random_graphs,
    ref_count_paths_into,
    sparse,
    tree,
)
from test_reachability import counted, counted_from, ref_is_saturated


# -- line points ---------------------------------------------------------------


def named_line_points(name):
    g = graph(name)
    return g.vertices_of(line_points(g))


def test_line_points_examples():
    assert named_line_points("g_toeplitz") == {"v"}
    assert named_line_points("g_loop") == frozenset()
    assert named_line_points("g_line3") == {"v1", "v2", "v3"}


# -- cycle classification --------------------------------------------------------


def test_classify_cycles_loop():
    (ci,) = x_decomposition(graph("g_loop")).cycles
    assert not ci.has_exits and ci.in_S and ci.entry_count == 1


def test_classify_cycles_cwe():
    infos = {ci.cycle.base: ci for ci in x_decomposition(graph("g_cwe")).cycles}
    h = infos["z"]
    assert not h.has_exits and not h.in_S and h.wrap_count is INFINITE


def test_classify_cycles_ext2():
    infos = {ci.cycle.edges: ci for ci in x_decomposition(graph("g_ext2")).cycles}
    e = infos[("e",)]
    assert e.has_exits and e.is_extreme


def test_cycle_info_invariants_on_fixtures():
    for name in ("g_loop", "g_line3", "g_toeplitz", "g_r2", "g_ext2", "g_cwe"):
        for ci in x_decomposition(graph(name)).cycles:
            if ci.is_extreme:
                assert ci.has_exits
            if ci.in_S:
                assert not ci.has_exits and ci.wrap_count is not INFINITE


# -- extreme classes ------------------------------------------------------------


def test_extreme_classes_ext2():
    g = graph("g_ext2")
    (xc,) = x_decomposition(g).x_ec
    assert g.vertices_of(xc.vertices) == {"u", "w"} and len(xc.cycles) == 2


def test_extreme_classes_loop_empty():
    g = graph("g_loop")
    assert x_decomposition(g).x_ec == ()


def test_extreme_classes_disjoint_union():
    g = disjoint_union(graph("g_ext2"), graph("g_ext2"))
    assert len(x_decomposition(g).x_ec) == 2


def test_extreme_classes_sorted_by_class_id():
    """Two extreme components, the one with the shorter cycles having the
    larger least vertex: the classes follow their ids, not the order in
    which `simple_cycles` finds their cycles."""
    g = Graph(
        ["b", "a", "c"],
        [Edge("l1", "b", "b"), Edge("l2", "b", "b"), Edge("x", "a", "c"),
         Edge("y", "c", "a"), Edge("z", "a", "c")],
    )
    rep = x_decomposition(g)
    assert [ci.cycle.base for ci in rep.cycles] == ["b", "b", "a", "a"]
    assert [(xc.class_id, g.vertices_of(xc.vertices)) for xc in rep.x_ec] == [
        ("a", {"a", "c"}), ("b", {"b"})
    ]


def test_extreme_classes_read_each_component_once():
    """The complete digraph on 4 vertices: its 20 simple cycles are all
    extreme and share one component, which `x_decomposition` reads from
    P_ec without looking up any tree; two copies give two classes and
    still no lookup."""
    g = complete_digraph(4)
    trees = []
    with mock.patch.object(Graph, "tree_bits", counted_from(trees, Graph.tree_bits, x_decomposition)):
        rep = x_decomposition(g)
    assert len(rep.cycles) == 20 and all(ci.is_extreme for ci in rep.cycles)
    assert trees == []
    (xc,) = rep.x_ec
    assert g.vertices_of(xc.vertices) == set(g.vertices) and len(xc.cycles) == 20
    assert list(xc.cycles) == [ci.cycle for ci in rep.cycles]
    trees.clear()
    with mock.patch.object(Graph, "tree_bits", counted_from(trees, Graph.tree_bits, x_decomposition)):
        assert len(x_decomposition(disjoint_union(g, g)).x_ec) == 2
    assert trees == []


@pytest.mark.parametrize("seed", range(3))
def test_x_decomposition_looks_up_no_vertex_set(seed):
    """Every set `x_decomposition` builds comes from bits the index already
    holds, so on a sparse 100-vertex graph no vertex set is turned into
    bits, which would check each member again."""
    g = sparse(seed)
    calls = []
    with mock.patch.object(Graph, "vertex_bits", counted(calls, Graph.vertex_bits)):
        rep = x_decomposition(g)
    assert rep.x_classes
    assert calls == []


def test_x_decomposition_builds_no_cycle_vertex_sets():
    """P_c, P_c+, P_e and P_ec are unions of components, read from no
    cycle's vertex set: on the complete digraph on 4 vertices, where no
    cycle is in S, no `vertex_set` is built at all."""
    g = complete_digraph(4)
    built = []
    vertex_set = Cycle.vertex_set
    with mock.patch.object(
        Cycle, "vertex_set", property(counted(built, vertex_set.fget))
    ):
        report = x_decomposition(g)
    assert built == []
    assert g.vertices_of(report.p_e) == g.vertices_of(report.p_ec) == set(g.vertices)
    assert not report.p_c and not report.p_c_plus


@pytest.mark.parametrize("n", range(3, 7))
def test_dense_graphs_never_reach_the_general_count(n):
    """On the complete digraph K_n every simple cycle is partnered: a cycle
    of length 3 or more is edge-disjoint from its reverse, and a 2-cycle
    from the 2-cycle on one of its vertices and a third.  So every entry
    count is INFINITE, read from the set test alone."""
    g = complete_digraph(n)
    calls = []
    with mock.patch.object(lpa.classify, "count_paths_into", counted(calls, count_paths_into)):
        rep = x_decomposition(g)
    assert rep.cycles and all(ci.entry_count is INFINITE for ci in rep.cycles)
    assert calls == []


def test_theta_cycles_are_unpartnered():
    """The theta graph u -> v by e, v -> u by f and by g, with a tail
    t -> u: its two cycles share e, so neither is partnered, and their
    entry counts are finite and come from the general count; their wrap
    counts are INFINITE, since each reaches the other's base."""
    g = Graph(
        ["t", "u", "v"],
        [Edge("e", "u", "v"), Edge("f", "v", "u"), Edge("g", "v", "u"), Edge("h", "t", "u")],
    )
    calls = []
    with mock.patch.object(lpa.classify, "count_paths_into", counted(calls, count_paths_into)):
        rep = x_decomposition(g)
    assert [ci.cycle.edges for ci in rep.cycles] == [("e", "f"), ("e", "g")]
    assert len(calls) == 2
    for ci in rep.cycles:
        c = ci.cycle
        assert ci.entry_count is not INFINITE
        assert ci.entry_count == ref_count_paths_into(g, c.vertex_set, c.edge_set)
        assert ci.wrap_count is INFINITE
    # the trivial paths at u and v, h, and the v -> u edge that c does not use
    assert [ci.entry_count for ci in rep.cycles] == [4, 4]


@pytest.mark.parametrize(
    "g",
    [graph(name) for name in FIXTURE_NAMES] + [sparse(seed) for seed in range(3)] + [chained(18)],
    ids=FIXTURE_NAMES + [f"sparse{seed}" for seed in range(3)] + ["chained18"],
)
def test_center_builds_no_cycle_vertex_set(g):
    """Every set the envelope builds for an S cycle or an extreme class is
    a component, read from the index's bits: `Cycle.vertex_set` is built
    only for `x_decomposition`'s general count, and `vertex_bits`, which
    checks every member again, never runs: P's density test reads P's
    bits too.  The sparse graphs hold S cycles; chained(18) holds an
    extreme class whose set is no X-class's closure, so `ideal_structure`
    builds it."""
    built, bits = [], []
    vertex_set = Cycle.vertex_set.fget

    def counting_vertex_set(c):
        built.append(sys._getframe(1).f_code.co_name)
        return vertex_set(c)

    paths = []
    with mock.patch.object(Cycle, "vertex_set", property(counting_vertex_set)), \
            mock.patch.object(Graph, "vertex_bits", counted(bits, Graph.vertex_bits)), \
            mock.patch.object(lpa.classify, "count_paths_into", counted(paths, count_paths_into)):
        build_envelope(g, with_center=True, verify=True)
    assert built == ["x_decomposition"] * len(paths)
    assert bits == []


@given(random_graphs())
@settings(max_examples=80, deadline=None)
def test_extreme_class_laws(g):
    classes = named_report(g, x_decomposition(g)).x_ec
    for xc in classes:
        # connected cycles share their tree; the class set is that tree
        for c in xc.cycles:
            assert tree(g, c.base) == xc.vertices
        # strongly connected: every class vertex returns to every cycle base
        for v in xc.vertices:
            assert any(c.base in tree(g, v) for c in xc.cycles)
    for i, a in enumerate(classes):
        for b in classes[i + 1:]:
            assert not (a.vertices & b.vertices)


# -- bifurcation-at-infinity set --------------------------------------------------


def test_p_binf_empty_on_finite_graphs():
    for name in ("g_cwe", "g_r2", "g_line3"):
        g = graph(name)
        assert g.vertices_of(x_decomposition(g).p_binf) == frozenset()


# -- similarity classes -----------------------------------------------------------


def named_sim_classes(name):
    g = graph(name)
    return [g.vertices_of(c) for c in sim_classes(g)]


def test_sim_classes_examples():
    assert named_sim_classes("g_toeplitz") == [frozenset({"u", "v"})]
    assert named_sim_classes("g_line3") == [frozenset({"v1", "v2", "v3"})]
    assert named_sim_classes("g_cwe") == [frozenset({"w", "z"})]


# -- X decomposition ---------------------------------------------------------------


def test_x_decomposition_loop():
    rep = x_decomposition(graph("g_loop"))
    (xc,) = rep.x_f
    assert xc.class_type == "cycle_laurent"


def test_x_decomposition_toeplitz():
    g = graph("g_toeplitz")
    rep = x_decomposition(g)
    (xc,) = rep.x_f
    assert g.vertices_of(xc.closure) == {"u", "v"}
    assert xc.entry.paths == ()
    assert xc.class_type == "line"


def test_x_decomposition_cwe():
    g = graph("g_cwe")
    rep = x_decomposition(g)
    (xc,) = rep.x_f
    assert g.vertices_of(xc.closure) == {"w", "z"}
    assert xc.class_type == "cycle_degenerate"


@given(random_graphs())
@settings(max_examples=100, deadline=None)
def test_classification_invariants(g):
    rep = named_report(g, x_decomposition(g))
    # the three P parts are pairwise disjoint
    assert not (rep.p_l & rep.p_c)
    assert not (rep.p_l & rep.p_ec)
    assert not (rep.p_c & rep.p_ec)
    # the plus/minus split partitions P_c
    assert rep.p_c == rep.p_c_plus | rep.p_c_minus
    assert not (rep.p_c_plus & rep.p_c_minus)
    # each ~ class is hereditary as a vertex set... not in general, but each
    # X class's closure is hereditary and saturated
    for xc in rep.x_classes:
        h = HereditarySet(g, xc.closure)
        assert h.is_hereditary and ref_is_saturated(g, h.members)
    # distinct classes have disjoint saturated closures
    fin = list(rep.x_classes)
    for i, a in enumerate(fin):
        for b in fin[i + 1:]:
            assert not (a.closure & b.closure)
    # cycle_laurent classes contain exactly one no-exit cycle, no sink
    infos = rep.cycles
    for xc in rep.x_f:
        if xc.class_type == "cycle_laurent":
            inside = [
                ci for ci in infos
                if not ci.has_exits and ci.cycle.vertex_set <= xc.closure
            ]
            assert len(inside) == 1 and inside[0].in_S
            assert all(g.out_edges(v) for v in xc.members)


# -- ideal structure -----------------------------------------------------------


def test_ideal_structure_line3():
    g = graph("g_line3")
    rep = ideal_structure(g, x_decomposition(g))
    (s,) = rep.sinks
    assert s.sink == "v3" and s.matrix_size == 3
    assert rep.dense


def test_ideal_structure_loop():
    g = graph("g_loop")
    rep = ideal_structure(g, x_decomposition(g))
    (c,) = rep.no_exit_cycles
    assert c.matrix_size == 1
    assert rep.dense


@given(random_graphs())
@settings(max_examples=80, deadline=None)
def test_ideal_structure_entry_paths_match_a_fresh_enumeration(g):
    # an extreme class whose T(c^0) is an X-class closure reuses that
    # class's entry paths, and its summand is the one a fresh F_E(H) gives
    rep = x_decomposition(g)
    calls = []
    with mock.patch.object(lpa.classify, "entry_paths", counted(calls, entry_paths)):
        ideal = ideal_structure(g, rep)
    assert not {g.vertices_of(xc.closure) for xc in rep.x_classes} & {h.members for _g, h in calls}
    for summand in ideal.extreme:
        eps = entry_paths(g, HereditarySet.from_bits(g, summand.extreme_class.vertices))
        if eps.is_infinite:
            assert summand.certificate is None
        else:
            cert = is_purely_infinite_simple(restriction_graph(g, eps))
            assert summand.certificate == cert


def test_envelope_counts_the_paths_into_a_sink_once(monkeypatch):
    """The sink count is read from the reachability index: no path count
    is run for it, in `ideal_structure` or again in `prime_trichotomy`."""
    calls = []
    monkeypatch.setattr(
        lpa.classify, "count_paths_into", counted(calls, lpa.classify.count_paths_into)
    )
    env = build_envelope(graph("g_line3"), with_center=False)
    assert (env.prime.kind, env.prime.witness, env.prime.matrix_size) == ("sink-case", "v3", 3)
    assert calls == []


@given(random_graphs())
@settings(max_examples=80, deadline=None)
def test_density_on_every_finite_graph(g):
    assert ideal_structure(g, x_decomposition(g)).dense


# -- purely infinite simple ------------------------------------------------------


def test_pis_examples():
    assert is_purely_infinite_simple(graph("g_ext2")).purely_infinite_simple
    cert = is_purely_infinite_simple(graph("g_loop"))
    assert not cert.purely_infinite_simple and cert.failing_condition == "exit"


def test_pis_restriction_graph_of_extreme_class():
    g = graph("g_ext2")
    (xc,) = x_decomposition(g).x_ec
    eps = entry_paths(g, HereditarySet.from_bits(g, xc.vertices))
    if not eps.is_infinite:
        sub = restriction_graph(g, eps)
        assert is_purely_infinite_simple(sub).purely_infinite_simple


# -- prime trichotomy ------------------------------------------------------------


def prime_of(g):
    rep = x_decomposition(g)
    return prime_trichotomy(g, rep, ideal_structure(g, rep))


def test_prime_trichotomy_line3():
    g = graph("g_line3")
    pt = prime_of(g)
    assert pt.kind == "sink-case" and pt.witness == "v3" and pt.matrix_size == 3


def test_prime_trichotomy_cwe():
    g = graph("g_cwe")
    pt = prime_of(g)
    assert pt.kind == "no-exit-cycle-case"
    assert pt.witness.edges == ("h",)
    assert pt.matrix_size is INFINITE


def test_prime_trichotomy_ext2():
    g = graph("g_ext2")
    pt = prime_of(g)
    assert pt.kind == "extreme-case"
    assert {c.edges for c in pt.witness.cycles} == {("e",), ("f", "g")}


def test_prime_trichotomy_not_prime():
    g = disjoint_union(graph("g_loop"), graph("g_loop"))
    assert prime_of(g).kind == "not-prime"


def test_prime_trichotomy_checks_survive_optimisation():
    # a downward-directed graph handed a report with two no-exit cycles
    # breaks an invariant; the check is a raise, not an assert
    g = graph("g_loop")
    two_loops = x_decomposition(disjoint_union(g, g))
    with pytest.raises(InvariantError, match="two no-exit cycles"):
        prime_trichotomy(g, two_loops, ideal_structure(g, x_decomposition(g)))


def _downward_directed(g):
    trees = {v: tree(g, v) for v in g.vertices}
    return all(trees[u] & trees[v] for u in g.vertices for v in g.vertices)


@given(random_graphs())
@settings(max_examples=120, deadline=None)
def test_prime_trichotomy_exclusive_cases(g):
    rep = x_decomposition(g)
    pt = prime_trichotomy(g, rep, ideal_structure(g, rep))
    if not _downward_directed(g):
        assert pt.kind == "not-prime"
        return
    assert pt.kind in ("sink-case", "no-exit-cycle-case", "extreme-case")
    sinks = [v for v in g.vertices if not g.out_edges(v)]
    no_exit = [ci for ci in rep.cycles if not ci.has_exits]
    if pt.kind == "sink-case":
        assert sinks == [pt.witness]
        assert all(pt.witness in tree(g, v) for v in g.vertices)
        assert not no_exit and not rep.x_ec
    elif pt.kind == "no-exit-cycle-case":
        assert not sinks and not rep.x_ec
        assert len(no_exit) == 1
    else:
        assert not sinks and not no_exit
        assert len(rep.x_ec) == 1
