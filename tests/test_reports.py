"""`Envelope.dumps` and `Envelope.to_json` lay a report out with the same
section functions, through a text writer and a dict writer.  Comparing
`dumps` with `json.dumps(env.to_json(), indent=2)` checks the text
writer's encoding (escapes, literals, indents) against `json`'s; the layout
itself is pinned by the golden digests and `test_cli.py`'s `CLI_DIGESTS`.
The vertex sets of the records are bitsets; their reference is the
classification read as frozensets of names, `ref_x_decomposition`."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from lpa.cli import _run_oracle
from lpa.fields import QQ, PrimeField
from lpa.graphs import Edge, Graph
from lpa.reports import build_envelope
from corpus import FIXTURE_NAMES, graph
from references import (
    chained,
    complete_digraph,
    cycle_with_tail,
    line,
    named_report,
    random_graphs,
    ref_x_decomposition,
    rose,
    small_multigraphs,
    sorted_vertices,
)
from test_reachability import ref_classify_cycles


def reference(env, index=None):
    doc = env.to_json()
    if index is not None:
        doc["index"] = index
    return json.dumps(doc, indent=2)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_dumps_matches_json_dumps_on_reports(name):
    """Every section the report can hold: classification alone, then the
    center, the verification and the oracle checks, over q and p:7."""
    g = graph(name)
    env = build_envelope(g, with_center=False)
    assert env.dumps() == reference(env)
    for field in (QQ, PrimeField(7)):
        env = build_envelope(g, field=field)
        assert env.dumps() == reference(env)
        env = build_envelope(g, field=field, verify=True)
        assert env.dumps() == reference(env)
        assert _run_oracle(env, None)
        assert env.oracle_checks
        assert env.dumps() == reference(env)


def test_dumps_with_index_matches_json_dumps_on_campaign500(campaign500):
    """The documents of `lpa random`: "index" is the last key."""
    for i, g in enumerate(campaign500):
        env = build_envelope(g, verify=True)
        assert env.dumps(index=i) == reference(env, i)


# ids that need escaping, that read like the literals the writer prints, or
# that hold the format characters of the edge record's `%` template
ESCAPED = ['"', "\\", "\n", "\x00", "\x1f", "é", "\U0001f600", "a\"b\\c", "INFINITE", "null",
           "12", "true", "[]", "%", "%s", "%(x)s", "%%"]
ids = st.sampled_from(ESCAPED) | st.text(st.characters(), min_size=1, max_size=4)


@st.composite
def escaped_graphs(draw):
    """Random graphs whose edge ids are drawn from `ids`, and whose vertex
    ids are too, or are empty."""
    g = draw(random_graphs(max_vertices=4, max_edges=6))
    vertex_ids = st.just("") | ids
    vs = draw(st.lists(vertex_ids, min_size=len(g.vertices), max_size=len(g.vertices), unique=True))
    es = draw(st.lists(ids, min_size=len(g.edges), max_size=len(g.edges), unique=True))
    name = dict(zip(g.vertices, vs))
    return Graph(vs, [Edge(eid, name[e.src], name[e.dst]) for eid, e in zip(es, g.edges)])


@given(escaped_graphs(), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_dumps_matches_json_dumps_on_escaped_ids(g, index):
    env = build_envelope(g, with_center=False)
    assert env.dumps() == reference(env)
    env = build_envelope(g, verify=True)
    assert env.dumps() == reference(env)
    assert env.dumps(index=index) == reference(env, index)


# the keys of the classification's top-level vertex sets
SET_KEYS = ("p_l", "p_c", "p_c_plus", "p_c_minus", "p_e", "p_ec", "p_binf", "h_f", "h_inf")


def written_sets(doc):
    """Every vertex list of a report's classification and ideal structure."""
    cl = doc["classification"]
    return (
        [cl[k] for k in SET_KEYS],
        [xc["vertices"] for xc in cl["x_ec"]],
        cl["sim_classes"],
        [[xc["members"], xc["closure"]] for xc in cl["x_classes"]],
        [x["vertices"] for x in doc["ideal_structure"]["extreme"]],
    )


def check_sets_against_frozensets(g):
    """Each bitset of g's report names exactly the vertices of the frozenset
    route's set, and `dumps` and `to_json` write it as that set sorted in
    declared order; an extreme summand's set is its class's."""
    env = build_envelope(g, with_center=False)
    ref = ref_x_decomposition(g, ref_classify_cycles(g))
    assert named_report(g, env.classification) == ref, g.to_document()
    def sv(vs):
        return sorted_vertices(g, vs)

    expected = (
        [sv(getattr(ref, k)) for k in SET_KEYS],
        [sv(xc.vertices) for xc in ref.x_ec],
        [sv(c) for c in ref.sim_classes],
        [[sv(xc.members), sv(xc.closure)] for xc in ref.x_classes],
        [sv(xc.vertices) for xc in ref.x_ec],
    )
    assert written_sets(json.loads(env.dumps())) == expected, g.to_document()
    assert written_sets(env.to_json()) == expected, g.to_document()


@pytest.mark.parametrize(
    "corpus",
    ["fixtures", "campaign100", "small", "campaign500", "lines", "tails", "complete-roses", "chained"],
)
def test_vertex_sets_match_the_frozenset_route(corpus, request):
    """On the fixtures, campaign100, every multigraph with at most 4
    vertices and 5 edges, once per isomorphism class, campaign500, L_2,
    L_10 and L_200 declared both ways, C_1..C_8 with a tail, K_2..K_6,
    R_1..R_5 and `chained(0..29)`.  The reference's wrap count takes only
    cycles of at most 8 edges, so longer cycles stay out."""
    if corpus == "fixtures":
        graphs = [graph(name) for name in FIXTURE_NAMES]
    elif corpus.startswith("campaign"):
        graphs = request.getfixturevalue(corpus)
    elif corpus == "small":
        graphs = [g for n in range(1, 5) for g in small_multigraphs(n, 5)]
    elif corpus == "lines":
        graphs = [line(n, reverse) for n in (2, 10, 200) for reverse in (False, True)]
    elif corpus == "tails":
        graphs = [cycle_with_tail(n) for n in range(1, 9)]
    elif corpus == "complete-roses":
        graphs = [complete_digraph(n) for n in range(2, 7)] + [rose(n) for n in range(1, 6)]
    else:
        graphs = [chained(seed) for seed in range(30)]
    for g in graphs:
        check_sets_against_frozensets(g)
