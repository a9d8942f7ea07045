"""The vertex part of an element in closed form.

`LeavittAlgebra.commutators` sums x's vertex terms by one integer
difference per edge, and `center.a_class` builds the closure's vertex
terms without `normal_form`.  Both are checked against the general route
they replaced (`references.ref_commutators` and `ref_a_class`): on every basis element, on perturbed copies of it that
are mostly not central, and on random elements, over Q, F_2 and F_7."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lpa.center import a_class, center_report
from lpa.classify import x_decomposition
from lpa.engine import AlgebraElement, LeavittAlgebra
from lpa.fields import QQ, PrimeField
from lpa.graphs import Edge, Graph
from references import (
    dense_graphs,
    line,
    ref_a_class,
    ref_commutators,
    rose,
    small_multigraphs,
)

FIELDS = [QQ, PrimeField(2), PrimeField(7)]
FIELD_IDS = ["Q", "F2", "F7"]


def sweep_graphs():
    """ROADMAP item 10's sweep: every multigraph with at most 4 vertices
    and 5 edges, once per isomorphism class."""
    return [g for n in (1, 2, 3, 4) for g in small_multigraphs(n, 5)]


def perturbed(alg, x):
    """Copies of x that differ in one term: each vertex term with its
    coefficient raised by 1 (dropped where that is 0 in the field), each
    vertex term dropped, each missing vertex added with coefficient 1, and
    each alpha alpha* term dropped."""
    coerce = alg.field.coerce
    present = {m[0] for m in x.terms if not (m[1] or m[3])}
    for m, k in x.terms.items():
        _, p, _, q = m
        if p == q:
            yield AlgebraElement(alg, {t: c for t, c in x.terms.items() if t != m})
            if not p and (c := coerce(k + 1)):
                yield AlgebraElement(alg, {**x.terms, m: c})
    for v in alg.graph.vertices:
        if v not in present:
            yield AlgebraElement(alg, {**x.terms, (v, (), v, ()): coerce(1)})


def check_against_reference(alg, x) -> bool:
    """`commutators` and `is_central` on x equal the reference's, witness,
    commutator and rendering included; returns whether x is central."""
    ref = ref_commutators(alg, x)
    assert alg.commutators(x) == ref, alg.render(x)
    # the reference witness: the first generator in generator_labels() order
    # whose commutator with x is nonzero
    witness, com = next(
        ((label, ref[(kind, gid)]) for label, kind, gid in alg.generator_labels() if (kind, gid) in ref),
        (None, None),
    )
    res = alg.is_central(x)
    assert (res.central, res.witness, res.commutator) == (witness is None, witness, com)
    if com is not None:
        assert alg.render(res.commutator) == alg.render(com)
    return res.central


def check_graph(g, field) -> tuple[int, int]:
    """Every basis element of g's center and every perturbed copy of it
    checked against the reference, and every a[c] against `ref_a_class`;
    returns the numbers of copies checked and of those not central."""
    alg = LeavittAlgebra(g, field)
    rep = x_decomposition(g)
    for xc in rep.x_f:
        fast, ref = a_class(alg, xc), ref_a_class(alg, xc)
        assert fast == ref
        assert {m: type(k) for m, k in fast.element.terms.items()} == {
            m: type(k) for m, k in ref.element.terms.items()
        }
    cr = center_report(alg, rep)
    copies = not_central = 0
    for b in cr.basis_zero + tuple(b for bs in cr.basis_nonzero.values() for b in bs):
        assert check_against_reference(alg, b.element), b.label
        for y in perturbed(alg, b.element):
            copies += 1
            not_central += not check_against_reference(alg, y)
    return copies, not_central


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_vertex_part_matches_reference_on_fixtures_and_campaign(
    field, fixture_graphs, campaign100
):
    copies = not_central = 0
    for g in [*fixture_graphs.values(), *campaign100]:
        c, n = check_graph(g, field)
        copies, not_central = copies + c, not_central + n
    assert not_central > copies // 2


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_vertex_part_matches_reference_on_every_small_multigraph(field):
    copies = not_central = 0
    for g in sweep_graphs():
        c, n = check_graph(g, field)
        copies, not_central = copies + c, not_central + n
    assert not_central > copies // 2


# Graphs where a vertex emits several edges, loops among them, so that
# vertex terms meet loops, parallel edges and both rewrites of the rest.
MULTI_EXIT = [
    rose(1),
    rose(2),
    Graph(
        ["u", "v", "w"],
        [Edge("a", "u", "v"), Edge("b", "u", "v"), Edge("c", "u", "u"),
         Edge("d", "v", "w"), Edge("f", "v", "u")],
    ),
]


@given(
    st.one_of(dense_graphs(4, 8), st.sampled_from(MULTI_EXIT)),
    st.sampled_from(FIELDS),
    st.integers(0, 10**6),
)
@settings(max_examples=200, deadline=None)
def test_random_mixed_elements_match_reference(g, field, seed):
    """Random elements with vertex terms on a random set of vertices, their
    coefficients drawn from a few values so that both ends of an edge often
    carry the same one, plus random path terms alpha beta*."""
    alg = LeavittAlgebra(g, field)
    rng = random.Random(seed)
    values = [1, -1, 2, 7] + ([Fraction(1, 2)] if field is QQ else [])
    paths = alg.enumerate_paths(2)
    for _ in range(3):
        raw = [((v, (), v, ()), rng.choice(values)) for v in g.vertices if rng.random() < 0.7]
        for _ in range(rng.randint(0, 3)):
            a = rng.choice(paths)
            r = g.path_range(*a)
            b = rng.choice([p for p in paths if g.path_range(*p) == r])
            raw.append((a + b, rng.choice(values)))
        check_against_reference(alg, alg.normal_form(raw))


# -- work counts -------------------------------------------------------------


def vertex_part(monkeypatch, alg, x):
    """(terms passed to generator_action, acc as `commutators` returns) for
    x, with generator_action recording its terms and adding nothing, so
    acc holds what the closed form of x's vertex part added."""
    passed, seen = [], {}
    monkeypatch.setattr(alg, "generator_action", lambda terms, acc: passed.extend(terms))
    code = LeavittAlgebra.commutators.__code__

    def hook(frame, event, arg):
        if event == "return" and frame.f_code is code:
            seen.update(frame.f_locals["acc"])

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        alg.commutators(x)
    finally:
        sys.setprofile(previous)
    return passed, seen


def test_identity_of_a_line_takes_the_closed_form_alone(monkeypatch):
    """L_200's one basis element is the identity, the sum of its 200
    vertices: no term goes to generator_action, and every edge has 1 at
    both ends, so nothing is added."""
    g = line(200)
    alg = LeavittAlgebra(g)
    (b,) = center_report(alg, x_decomposition(g)).basis_zero
    assert len(b.element.terms) == 200
    passed, acc = vertex_part(monkeypatch, alg, b.element)
    assert passed == [] and acc == {}


def test_vertex_part_of_a_class_keys_its_boundary_edges(monkeypatch, fixture_graphs, campaign100):
    """On every a[c], the vertex part adds the two keys of each edge with
    one end among a[c]'s vertex terms and the other not, with 1 and -1 as
    the vertex relations give them, and nothing else: an edge with both
    ends there is not counted, let alone twice.

    The vertex terms are the closure's vertices plus, for each entry path
    that is one edge s special at its source a, the vertex a, since
    normal form rewrites s s* to a - sum_{f != s} f f*.  The closure is
    hereditary, so no edge leaves it, and where no such a is added the keys
    are those of the edges that enter the closure from outside.  An added
    a is outside the closure and, the closure being saturated, has an edge
    out of it, so the keys include edges that do not meet the closure."""
    entering_only = with_added = 0
    for g in [*fixture_graphs.values(), *campaign100]:
        alg = LeavittAlgebra(g)
        for xc in x_decomposition(g).x_f:
            x = a_class(alg, xc).element
            closure = set(g.names_of(xc.closure))
            added = {
                g.edge(p[0]).src
                for p in xc.entry.paths
                if len(p) == 1 and min(g.out_edges(g.edge(p[0]).src)).id == p[0]
            }
            ks = {m[0]: k for m, k in x.terms.items() if not (m[1] or m[3])}
            assert ks.keys() == closure | added and not closure & added
            assert set(ks.values()) == {1}
            passed, acc = vertex_part(monkeypatch, alg, x)
            assert all(m[1] or m[3] for m, _ in passed)
            # k is 1 on ks, so an edge leaving ks gets 1 and one entering -1
            expected = {}
            for e in g.edges:
                if c := (e.src in ks) - (e.dst in ks):
                    expected[("edge", e.id, e.src, (e.id,), e.dst, ())] = c
                    expected[("ghost", e.id, e.dst, (), e.src, (e.id,))] = -c
            assert acc == expected
            if added:
                with_added += 1
            else:
                entering_only += 1
                assert {k[1] for k in acc} == {
                    e.id for e in g.edges if e.dst in closure and e.src not in closure
                }
    assert entering_only and with_added
