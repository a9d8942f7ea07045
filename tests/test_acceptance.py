"""Acceptance gate: one test per criterion, each reported as a single
pass/fail line in the terminal summary (see conftest)."""

import json
import random

from lpa.center import (
    basis_zero,
    center_report,
    oracle_commutant,
    required_oracle_bound,
    same_span,
    verify_basis,
)
from lpa.classify import ideal_structure, prime_trichotomy, x_decomposition
from lpa.engine import LeavittAlgebra
from lpa.graphs import GraphError, parse_graph
from lpa.hereditary import (
    HereditarySet,
    entry_paths,
    hereditary_closure,
    restriction_graph,
    saturated_closure,
)
from lpa.randomgen import random_graph
from lpa.reports import build_envelope
from corpus import graph
from references import (
    PATH_ID_CLASHES,
    disjoint_union,
    monomial_element,
    path_element,
    path_from_edges,
    sorted_vertices,
    tree,
)


def all_basis_elements(alg, rep, degree_window=None):
    cr = center_report(alg, rep, degree_window)
    elems = list(cr.basis_zero)
    for _n, es in sorted(cr.basis_nonzero.items()):
        elems.extend(es)
    return cr, elems


# -- criterion 1: fixture centers ---------------------------------------------


def test_criterion_01_fixture_centers():
    expected_iso = {
        "g_loop": {"K": 0, "Laurent": 1},
        "g_line3": {"K": 1, "Laurent": 0},
        "g_toeplitz": {"K": 1, "Laurent": 0},
        "g_r2": {"K": 1, "Laurent": 0},
        "g_ext2": {"K": 1, "Laurent": 0},
        "g_cwe": {"K": 1, "Laurent": 0},
    }
    for name, iso in expected_iso.items():
        alg = LeavittAlgebra(graph(name))
        rep = center_report(alg, x_decomposition(alg.graph))
        assert rep.iso_type == iso, name

    # Toeplitz basis is exactly {u + v}
    alg = LeavittAlgebra(graph("g_toeplitz"))
    (b,) = center_report(alg, x_decomposition(alg.graph)).basis_zero
    assert b.element == alg.vertex("u") + alg.vertex("v")

    # two disjoint loops: Laurent squared
    g2 = disjoint_union(graph("g_loop"), graph("g_loop"))
    cr = center_report(LeavittAlgebra(g2), x_decomposition(g2))
    assert cr.iso_type == {"K": 0, "Laurent": 2}

    # the degenerate case carries a divergence flag
    g = graph("g_cwe")
    cwe = center_report(LeavittAlgebra(g), x_decomposition(g))
    assert cwe.divergence_flags and cwe.iso_type == {"K": 1, "Laurent": 0}


# -- criterion 2: centrality on the 500-graph campaign --------------------------


def test_criterion_02_campaign_centrality(campaign500):
    checked = 0
    for g in campaign500:
        alg = LeavittAlgebra(g)
        _cr, elems = all_basis_elements(alg, x_decomposition(g), degree_window=4)
        for label, res in verify_basis(alg, elems):
            assert res.central, (g.to_document(), label, res.witness)
            checked += 1
    assert checked > 0


# -- criterion 3: oracle span equality -------------------------------------------


def _oracle_matches(alg, degree_window=2):
    cr, _ = all_basis_elements(
        alg, x_decomposition(alg.graph), degree_window=max(degree_window, 2)
    )
    by_degree = {0: list(cr.basis_zero)}
    for n, es in cr.basis_nonzero.items():
        by_degree.setdefault(n, []).extend(es)
    for n in range(-degree_window, degree_window + 1):
        elems = by_degree.get(n, [])
        bound = required_oracle_bound(elems)
        comm = oracle_commutant(alg, n, bound)
        if not same_span(alg, [b.element for b in elems], comm):
            return False, n
    return True, None


def test_criterion_03_oracle_equivalence(campaign100):
    for name in ("g_loop", "g_line3", "g_toeplitz", "g_r2", "g_ext2", "g_cwe"):
        ok, n = _oracle_matches(LeavittAlgebra(graph(name)))
        assert ok, (name, n)
    for g in campaign100:
        ok, n = _oracle_matches(LeavittAlgebra(g))
        assert ok, (g.to_document(), n)


# -- criterion 4: B0 idempotent orthogonality --------------------------------------


def test_criterion_04_b0_orthogonality(campaign500):
    for g in campaign500:
        alg = LeavittAlgebra(g)
        bs = basis_zero(alg, x_decomposition(g))
        for i, a in enumerate(bs):
            assert a.element * a.element == a.element
            for b in bs[i + 1:]:
                assert not (a.element * b.element)
                assert not (b.element * a.element)


# -- criterion 5: engine dimensions and range-relation soundness -------------------


def test_criterion_05_engine_dimensions(campaign500):
    line = LeavittAlgebra(graph("g_line3"))
    total = sum(len(line.normal_monomials(n, 4)) for n in range(-2, 3))
    assert total == 9

    loop = LeavittAlgebra(graph("g_loop"))
    for n in range(-3, 4):
        ms = loop.normal_monomials(n, 6)
        assert len(ms) == 1
        (m,) = ms
        assert m[1] == ("c",) * max(n, 0)
        assert m[3] == ("c",) * max(-n, 0)

    # v = sum of ee* at every regular vertex of every campaign graph
    for g in campaign500:
        alg = LeavittAlgebra(g)
        for v in g.vertices:
            out = g.out_edges(v)
            if not out:
                continue
            total = alg.vertex(v)
            for e in out:
                total = total - alg.edge(e.id) * alg.ghost(e.id)
            assert not total, (g.to_document(), v)


# -- criterion 6: closure laws ------------------------------------------------------


def test_criterion_06_closure_laws():
    rng = random.Random(1106)
    for _ in range(1000):
        g = random_graph(rng, 5, 8)
        h1 = hereditary_closure(g, {v for v in g.vertices if rng.random() < 0.4})
        h2 = hereditary_closure(g, {v for v in g.vertices if rng.random() < 0.4})
        s1 = saturated_closure(g, h1)
        assert saturated_closure(g, s1).members == s1.members  # idempotent
        assert h1.members <= s1.members  # extensive
        union = hereditary_closure(g, h1.members | h2.members)
        assert s1.members <= saturated_closure(g, union).members  # monotone
        inter = HereditarySet(g, h1.members & h2.members)
        lhs = saturated_closure(g, inter).members
        rhs = s1.members & saturated_closure(g, h2).members
        assert lhs == rhs  # closure of intersection = intersection of closures


# -- criterion 7: density -------------------------------------------------------------


def test_criterion_07_density(campaign500):
    from lpa.hereditary import is_dense_ideal

    for g in campaign500:
        rep = x_decomposition(g)
        assert rep.p, g.to_document()
        assert is_dense_ideal(g, HereditarySet.from_bits(g, rep.p)), g.to_document()


# -- criterion 8: restriction-graph soundness -------------------------------------------


def _phi_maps(g, alg, rg):
    """Generator images of the restriction graph inside the ambient algebra,
    and the entry path read back from each vertex id outside g: a run of
    "#", then the path as a JSON list of edge ids."""
    vertices, edge_ids = set(g.vertices), {e.id for e in g.edges}
    path_of = {v: tuple(json.loads(v.lstrip("#"))) for v in rg.vertices if v not in vertices}
    vmap = {}
    for v in rg.vertices:
        if v in vertices:
            vmap[v] = alg.vertex(v)
        else:
            p = path_from_edges(alg, path_of[v])
            vmap[v] = monomial_element(alg, p, p)
    emap = {}
    for e in rg.edges:
        if e.id in edge_ids:
            emap[e.id] = alg.edge(e.id)
        else:
            emap[e.id] = path_element(alg, path_from_edges(alg, path_of[e.src]))
    return vmap, emap, path_of


def test_criterion_08_restriction_graph_soundness(campaign100):
    graphs = [graph("g_ext2"), graph("g_r2")] + campaign100
    graphs += [parse_graph(json.dumps(doc)) for doc in PATH_ID_CLASHES.values()]
    classes_checked = 0
    from lpa.classify import is_purely_infinite_simple

    for g in graphs:
        for xc in x_decomposition(g).x_ec:
            eps = entry_paths(g, HereditarySet.from_bits(g, xc.vertices))
            if eps.is_infinite:
                continue
            rg = restriction_graph(g, eps)
            assert is_purely_infinite_simple(rg).purely_infinite_simple
            alg = LeavittAlgebra(g)
            vmap, emap, path_of = _phi_maps(g, alg, rg)
            assert sorted(path_of.values()) == sorted(eps.paths)
            # range relation at every regular vertex of the restriction graph
            for v in rg.vertices:
                out = rg.out_edges(v)
                if not out:
                    continue
                total = vmap[v]
                for e in out:
                    img = emap[e.id]
                    total = total - img * alg.involution(img)
                assert not total, (g.to_document(), v)
            # orthogonality relation for every edge pair
            for e in rg.edges:
                for f in rg.edges:
                    prod = alg.involution(emap[e.id]) * emap[f.id]
                    if e.id == f.id:
                        assert prod == vmap[e.dst]
                    else:
                        assert not prod, (g.to_document(), e.id, f.id)
            classes_checked += 1
    assert classes_checked > 0


# -- criterion 9: prime trichotomy --------------------------------------------------------


def test_criterion_09_prime_trichotomy(campaign500):
    cases_seen = set()
    for g in campaign500:
        trees = {v: tree(g, v) for v in g.vertices}
        directed = all(
            trees[u] & trees[v] for u in g.vertices for v in g.vertices
        )
        rep = x_decomposition(g)
        pt = prime_trichotomy(g, rep, ideal_structure(g, rep))
        if not directed:
            assert pt.kind == "not-prime"
            continue
        sinks = [v for v in g.vertices if not g.out_edges(v)]
        no_exit = [ci for ci in rep.cycles if not ci.has_exits]
        assert pt.kind in ("sink-case", "no-exit-cycle-case", "extreme-case")
        cases_seen.add(pt.kind)
        if pt.kind == "sink-case":
            assert sinks == [pt.witness]
            assert all(pt.witness in trees[v] for v in g.vertices)
            assert not no_exit and not rep.x_ec
        elif pt.kind == "no-exit-cycle-case":
            assert len(no_exit) == 1 and not sinks and not rep.x_ec
            assert no_exit[0].cycle == pt.witness
        else:
            assert len(rep.x_ec) == 1 and not sinks and not no_exit
    assert cases_seen == {"sink-case", "no-exit-cycle-case", "extreme-case"}


# -- criterion 10: positive-degree annihilation ----------------------------------------------


def test_criterion_10_bn_annihilates(campaign500):
    checked = 0
    for g in campaign500:
        rep = x_decomposition(g)
        targets = rep.p_l | rep.p_e | rep.p_c_plus
        if not targets:
            continue
        alg = LeavittAlgebra(g)
        cr, _ = all_basis_elements(alg, rep, degree_window=4)
        for n, es in cr.basis_nonzero.items():
            if n <= 0:
                continue
            for b in es:
                for u in g.names_of(targets):
                    assert not (b.element * alg.vertex(u)), (
                        g.to_document(), b.label, u,
                    )
                    checked += 1
    assert checked > 0


# -- criterion 11: resolve soundness -----------------------------------------------------------


def resolve_vertex(g, v, H):
    """Paths alpha_i with ranges in H such that sum alpha_i alpha_i^* = v.

    Unfolds the out-edges of v until every branch lands in H; that
    unfolding is finite exactly when v lies in the saturated closure of H.
    The identity itself is what criterion 11 checks in the engine.  A
    length-0 path is the empty tuple.
    """
    g.check_vertex(v)
    if v not in saturated_closure(g, H).members:
        raise GraphError(f"vertex {v!r} is outside the saturated closure")
    # depth-first over the unfolding, edges in declared order
    resolved = []
    stack = [(v, ())]
    while stack:
        u, path = stack.pop()
        if u in H.members:
            resolved.append(path)
        else:
            stack.extend((e.dst, path + (e.id,)) for e in reversed(g.out_edges(u)))
    return resolved


def test_criterion_11_resolve_soundness():
    rng = random.Random(1111)
    done = 0
    while done < 200:
        g = random_graph(rng, 5, 8)
        h = hereditary_closure(g, {v for v in g.vertices if rng.random() < 0.4})
        if not h.members:
            continue
        closure = saturated_closure(g, h).members
        v = rng.choice(sorted_vertices(g, closure))
        alg = LeavittAlgebra(g)
        total = alg.zero()
        for p in resolve_vertex(g, v, h):
            src = g.edge(p[0]).src if p else v
            alpha = (src, p)
            total = total + monomial_element(alg, alpha, alpha)
        assert total == alg.vertex(v), (g.to_document(), v)
        done += 1


# -- criterion 12: determinism -------------------------------------------------------------------


def test_criterion_12_determinism(campaign100):
    for name in ("g_loop", "g_cwe", "g_ext2"):
        g = graph(name)
        assert (
            build_envelope(g, verify=True).dumps()
            == build_envelope(g, verify=True).dumps()
        )
    for g in campaign100[:10]:
        assert (
            build_envelope(g, verify=True).dumps()
            == build_envelope(g, verify=True).dumps()
        )
