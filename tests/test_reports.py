import json

import pytest
from hypothesis import given, settings, strategies as st

from lpa.reports import build_envelope, json_text
from corpus import FIXTURE_NAMES, graph

# json.dumps(doc, indent=2) is the reference for json_text: random documents
# of every type a report holds, with big and negative ints and text that
# needs escaping (quotes, backslashes, control and non-ASCII characters)
texts = st.text(st.characters(), max_size=6) | st.sampled_from(['"', "\\", "\n", "\x00", "é", "\U0001f600"])
scalars = st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | texts
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=30,
)


@given(documents)
@settings(max_examples=400, deadline=None)
def test_json_text_matches_json_dumps(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_json_text_matches_json_dumps_on_reports(name):
    doc = build_envelope(graph(name), verify=True).to_json()
    assert json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc", [1.5, [0, 0.5], {"a": (1, 2)}, (), {1: "a"}, {"a": {2: None}}, {None: 1}],
    ids=["float", "nested-float", "tuple", "empty-tuple", "int-key", "nested-int-key", "none-key"],
)
def test_json_text_rejects_other_types(doc):
    with pytest.raises(TypeError):
        json_text(doc)
