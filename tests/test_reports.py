"""`Envelope.dumps` writes the report text straight from the records; the
reference is `json.dumps(env.to_json(), indent=2)`, the dict API's text."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from lpa.cli import _run_oracle
from lpa.fields import QQ, PrimeField
from lpa.graphs import Edge, Graph
from lpa.reports import build_envelope
from corpus import FIXTURE_NAMES, graph
from references import random_graphs


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
