import contextlib
import hashlib
import io
import json
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from lpa.cli import main
from lpa.engine import CentralityResult, LeavittAlgebra
from lpa.fields import PRIME_LIMIT
from lpa.graphs import InvariantError
from lpa.randomgen import graph_stream
from lpa.reports import build_envelope, load_schema
from corpus import FIXTURE_NAMES, FIXTURES, graph
from references import PATH_ID_CLASHES, graph_documents, json_values, wrong_fields



def run_cli(*args, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "lpa.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def schema():
    return load_schema()


def test_classify_toeplitz(schema):
    code, out, _err = run_cli("classify", str(FIXTURES / "g_toeplitz.json"))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["classification"]["p_l"] == ["v"]
    assert doc["classification"]["p_c"] == []
    assert doc["classification"]["p_ec"] == []
    assert doc["ideal_structure"]["dense"] is True


def test_classify_ext2(schema):
    code, out, _err = run_cli("classify", str(FIXTURES / "g_ext2.json"))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["classification"]["p_ec"] == ["u", "w"]
    (xcert,) = doc["ideal_structure"]["extreme"]
    assert xcert["certificate"]["purely_infinite_simple"] is True


@pytest.mark.parametrize("name", sorted(PATH_ID_CLASHES))
@pytest.mark.parametrize("command", [["classify"], ["center", "--verify"]])
def test_entry_path_ids_never_clash(schema, tmp_path, name, command):
    """Two entry paths into an extreme class once got the same vertex id in
    its restriction graph, or one of the class's own, and the run exited 2."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(PATH_ID_CLASHES[name]))
    code, out, err = run_cli(command[0], str(path), *command[1:])
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    (xcert,) = doc["ideal_structure"]["extreme"]
    assert xcert["certificate"]["purely_infinite_simple"] is True


def test_classify_malformed_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _out, err = run_cli("classify", str(bad))
    assert code == 2 and "input error" in err


INT_EDGE_ID = {"vertices": ["u", "v"], "edges": [{"id": 1, "src": "u", "dst": "v"}]}
INT_AND_STR_EDGE_IDS = {
    "vertices": ["u", "v"],
    "edges": [{"id": 1, "src": "u", "dst": "v"}, {"id": "b", "src": "u", "dst": "v"}],
}
EMPTY_EDGE_ID = {"vertices": ["u"], "edges": [{"id": "", "src": "u", "dst": "u"}]}
LIST_EDGE_SOURCE = {"vertices": ["u"], "edges": [{"id": "a", "src": ["u"], "dst": "u"}]}


@pytest.mark.parametrize(
    "doc", [INT_EDGE_ID, INT_AND_STR_EDGE_IDS, EMPTY_EDGE_ID, LIST_EDGE_SOURCE]
)
@pytest.mark.parametrize("command", ["classify", "center"])
def test_non_string_edge_fields_exit_2(tmp_path, doc, command):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(command, str(path))
    assert code == 2 and out == "" and "input error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "center"])
def test_deeply_nested_document_exits_2(tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run_cli(command, str(path))
    assert code == 2 and out == "" and "malformed graph document" in err
    assert "Traceback" not in err


def test_classify_missing_file_exits_2(tmp_path):
    code, _out, err = run_cli("classify", str(tmp_path / "nope.json"))
    assert code == 2


def test_center_loop_verify(schema):
    code, out, _err = run_cli("center", str(FIXTURES / "g_loop.json"), "--verify")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["center"]["iso_type"] == {"K": 0, "Laurent": 1}
    assert all(v["central"] for v in doc["verification"])


def test_center_cwe_verify_oracle(schema):
    code, out, _err = run_cli(
        "center", str(FIXTURES / "g_cwe.json"), "--verify", "--oracle"
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["center"]["iso_type"] == {"K": 1, "Laurent": 0}
    assert doc["center"]["divergence_flags"]
    assert all(o["agrees"] for o in doc["oracle"])


def test_oracle_bound_past_the_longest_path_returns_promptly():
    # g_line3 has no path longer than 2, so a bound of 10^12 must cost no
    # more than a bound of 4; extending empty layers up to the bound hangs
    code, out, err = run_cli(
        "center", str(FIXTURES / "g_line3.json"), "--verify", "--oracle",
        "--max-len", "1000000000000", timeout=10,
    )
    assert code == 0, err
    assert all(o["agrees"] for o in json.loads(out)["oracle"])


def test_center_bound_too_small_exits_4():
    code, _out, err = run_cli(
        "center", str(FIXTURES / "g_line3.json"), "--oracle", "--max-len", "1"
    )
    assert code == 4 and "bound" in err


# the loop at c puts degrees -2..2 in the window; degree 0's basis holds
# the idempotent of the tree x -> y -> {s, w}, whose entry paths e1 e2 and
# e1 e3 need a bound of 4, while degrees -2 and -1 need only 2
BOUND_AFTER_FIRST_DEGREES = {
    "vertices": ["c", "x", "y", "s", "w"],
    "edges": [
        {"id": "l", "src": "c", "dst": "c"},
        {"id": "e1", "src": "x", "dst": "y"},
        {"id": "e2", "src": "y", "dst": "s"},
        {"id": "e3", "src": "y", "dst": "w"},
    ],
}


@pytest.mark.parametrize(
    "max_len, required", [(3, 4), (1, 2)], ids=["later-degree", "first-degree"]
)
def test_bound_error_emits_no_oracle_block(capsys, tmp_path, schema, max_len, required):
    # every degree's bound is checked before the first solve: a bound too
    # small for a later degree must not report the earlier ones as agreeing
    path = tmp_path / "g.json"
    path.write_text(json.dumps(BOUND_AFTER_FIRST_DEGREES))
    argv = ["center", str(path), "--verify", "--oracle", "--max-len", str(max_len)]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert "oracle" not in report
    assert f"requires at least {required}" in err


def test_center_prime_field():
    code, out, _err = run_cli(
        "center", str(FIXTURES / "g_loop.json"), "--verify", "--field", "p:5"
    )
    assert code == 0
    assert json.loads(out)["center"]["iso_type"] == {"K": 0, "Laurent": 1}


def test_center_bad_field_is_usage_error():
    code, _out, _err = run_cli(
        "center", str(FIXTURES / "g_loop.json"), "--field", "p:4"
    )
    assert code == 2


@pytest.mark.parametrize(
    "p, prime",
    [
        (561, False),  # Carmichael numbers
        (41041, False),
        (10**18 + 3, True),
        (10**18 + 1, False),
        (1, False),
        (4, False),
        (0, False),
        (PRIME_LIMIT - 2, False),  # 17 divides it
        (PRIME_LIMIT - 168, True),  # the largest prime below the limit
        (PRIME_LIMIT, False),  # beyond the exact range: rejected, not tested
    ],
)
def test_center_field_primality(capsys, p, prime):
    argv = ["center", str(FIXTURES / "g_loop.json"), "--field", f"p:{p}"]
    if prime:
        assert main(argv) == 0
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--field" in capsys.readouterr().err


def test_random_deterministic_and_verified():
    args = (
        "random", "--seed", "11", "--count", "10",
        "--max-vertices", "4", "--max-edges", "6",
    )
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip().endswith("summary: 10/10 verified")


def campaign_documents(out):
    """The per-graph JSON documents that `lpa random` prints before its summary."""
    decoder = json.JSONDecoder()
    body = out[: out.rindex("summary:")]
    docs, at = [], 0
    while body[at:].strip():
        doc, at = decoder.raw_decode(body, at)
        docs.append(doc)
        at += 1
    return docs


def test_random_documents_validate(schema, capsys):
    """Every per-graph document `lpa random` prints, each ending in its
    "index", is one the schema accepts."""
    args = ["random", "--seed", "11", "--count", "10", "--max-vertices", "4", "--max-edges", "6"]
    assert main(args) == 0
    docs = campaign_documents(capsys.readouterr().out)
    assert [doc["index"] for doc in docs] == list(range(10))
    for doc in docs:
        jsonschema.validate(doc, schema)


def test_random_failure_prints_replay_witness(monkeypatch, capsys, tmp_path):
    """A campaign graph that fails verification is named on stderr by seed,
    index and witness generator, followed by its document on one line, and
    that document replays through `lpa center --verify`."""
    args = ["random", "--seed", "11", "--count", "10", "--max-vertices", "4", "--max-edges", "6"]
    assert main(args) == 0
    clean = capsys.readouterr().out
    target = list(graph_stream(11, 10, 4, 6))[6].to_document()
    is_central = LeavittAlgebra.is_central

    def fail_on_target(self, x):
        if self.graph.to_document() != target:
            return is_central(self, x)
        *_, (label, _kind, _id) = self.generator_labels()
        return CentralityResult(False, label, x)

    monkeypatch.setattr(LeavittAlgebra, "is_central", fail_on_target)
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out.endswith("summary: 9/10 verified\n")
    assert captured.out.count('"central": false') == 6  # every basis element of graph 6
    before, after = campaign_documents(clean), campaign_documents(captured.out)
    assert [i for i in range(10) if before[i] != after[i]] == [6]
    assert captured.err.splitlines() == [
        "lpa: --seed 11 graph 6: a[v1] does not commute with e5*",
        json.dumps(target),
    ]
    path = tmp_path / "replay.json"
    path.write_text(captured.err.splitlines()[1])
    assert main(["center", str(path), "--verify"]) == 3


def test_random_vertex_cap_zero_is_usage_error():
    code, _out, _err = run_cli(
        "random", "--seed", "1", "--count", "1",
        "--max-vertices", "0", "--max-edges", "3",
    )
    assert code == 2


def test_schema_command_prints_schema(schema):
    code, out, _err = run_cli("schema")
    assert code == 0
    assert json.loads(out) == schema


def test_text_format_rendering(capsys):
    code = main(["center", str(FIXTURES / "g_toeplitz.json"), "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "center: K^1" in out
    assert "a[u] = 1·u + 1·v" in out


def test_envelope_schema_on_all_fixtures(schema):
    for name in FIXTURE_NAMES:
        env = build_envelope(graph(name), verify=True)
        jsonschema.validate(env.to_json(), schema)


def test_envelope_byte_identical():
    g = graph("g_ext2")
    assert build_envelope(g, verify=True).dumps() == build_envelope(g, verify=True).dumps()


@pytest.mark.parametrize(
    "args, message",
    [
        (("--degrees", "-1"), "--degrees must be nonnegative"),
        (("--oracle", "--max-len", "-1"), "--max-len must be nonnegative"),
    ],
)
def test_center_negative_bound_is_usage_error(args, message):
    code, out, err = run_cli("center", str(FIXTURES / "g_loop.json"), *args)
    assert code == 2 and out == ""
    assert f"input error: {message}" in err


def test_classify_long_line_exits_0(tmp_path):
    n = 1100
    vs = [f"v{i:04d}" for i in range(n)]
    doc = {
        "vertices": vs,
        "edges": [{"id": f"e{i}", "src": vs[i], "dst": vs[i + 1]} for i in range(n - 1)],
    }
    path = tmp_path / "line.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("classify", str(path))
    assert code == 0, err
    assert json.loads(out)["classification"]["p_l"] == vs


@pytest.mark.parametrize(
    "exc, code, breach",
    [
        (InvariantError("two sinks"), 5, True),
        (RecursionError("too deep"), None, False),
        (AssertionError("unchecked"), None, False),
    ],
)
def test_only_invariant_errors_exit_5(monkeypatch, capsys, exc, code, breach):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr("lpa.cli.build_envelope", fail)
    if code is None:
        with pytest.raises(type(exc)):
            main(["classify", str(FIXTURES / "g_loop.json")])
    else:
        assert main(["classify", str(FIXTURES / "g_loop.json")]) == code
    assert ("internal invariant breach" in capsys.readouterr().err) == breach


# SHA-256 of stdout for each command, recorded from the CLI at the commit
# before the corner-reduction API, the inline fixture corpus and the other
# code no command reaches were deleted; any change to these bytes is a
# change of behaviour.  Fixture names stand for their fixtures/*.json path.
VERIFY_ORACLE = ("--verify", "--oracle")
CAMPAIGN500 = ("--seed", "20260823", "--count", "500", "--max-vertices", "6", "--max-edges", "12")
CLI_DIGESTS = {
    "classify-g_cwe": (
        ("classify", "g_cwe"),
        "efde74235d8019fc3f928fc8ed0cbc7a9c3fb9a05db8cfa3f27c5b59e86cd514",
    ),
    "classify-g_ext2": (
        ("classify", "g_ext2"),
        "0a087440f69cdcea9dc00bc6a41cc7ac2efe9851e075e6f8b7e33f6cd505111d",
    ),
    "classify-g_line3": (
        ("classify", "g_line3"),
        "e8a34240d7bae8ae1b6f30192b987416a29748b0cb78c5b179497253e69e3831",
    ),
    "classify-g_loop": (
        ("classify", "g_loop"),
        "14e9bb377cdfa1aa7e2259c7ed263cdaea57bdaaf9191d0f9f6e6c43b246f2ba",
    ),
    "classify-g_r2": (
        ("classify", "g_r2"),
        "40fd0748435ffe7c1c10b9a2c9260e314b1e800cbb6e12d78bce72b554660e26",
    ),
    "classify-g_toeplitz": (
        ("classify", "g_toeplitz"),
        "973867d1a461e7bd386f1ed705b485848d3b943c9573133706ec8bc03a8a590f",
    ),
    "center-g_cwe": (
        ("center", "g_cwe", *VERIFY_ORACLE),
        "3788f229af0280b57ed0985a5f27592979bcd1258a989c87dedf1e39ca2c522b",
    ),
    "center-g_ext2": (
        ("center", "g_ext2", *VERIFY_ORACLE),
        "448c12cf53296617294b91dabf579e60faefa1fb82e9d84e751a9c54921a57d5",
    ),
    "center-g_line3": (
        ("center", "g_line3", *VERIFY_ORACLE),
        "ed9d205a93c4c76542686501ad4242f9dd918a7de31dd11a0d5e64f232dab72d",
    ),
    "center-g_loop": (
        ("center", "g_loop", *VERIFY_ORACLE),
        "8a1a67544bc052f5977d6509816cc2afb7b3ffc4827d29308c6b084e89c54f0a",
    ),
    "center-g_r2": (
        ("center", "g_r2", *VERIFY_ORACLE),
        "aaa26c36edc53267e2846665cc9e75a57c0a082e5e79e0a4aa009e0b9a1c25ac",
    ),
    "center-g_toeplitz": (
        ("center", "g_toeplitz", *VERIFY_ORACLE),
        "9b53f6c91ada0889ea69391dc8f97120b4321a669178607a33237e2183c3fc52",
    ),
    "classify-g_toeplitz-text": (
        ("classify", "g_toeplitz", "--format", "text"),
        "f4a764ba264809ee7951725f7ea5ea80b9bd945b45474a1507d88faaa43435c2",
    ),
    "center-g_ext2-text": (
        ("center", "g_ext2", *VERIFY_ORACLE, "--format", "text"),
        "14aaab2862d33d1b9739f492cab2de52ec58dcd65db79c4bcaa2630025ccbd9d",
    ),
    "random-campaign500": (
        ("random", *CAMPAIGN500),
        "b70eeeaf30bbbeb8e42ed3dab291cd7a4161e5ba3e0dd6bc1fcf083d178975f5",
    ),
    "center-two_cycle": (
        ("center", "two_cycle", *VERIFY_ORACLE),
        "7f6662cd02ccd60622c05b9205d33a6ee6d758eaf39d26cdaf1b6ebb36becdbf",
    ),
    "center-multi_exit-p7": (
        ("center", "multi_exit", *VERIFY_ORACLE, "--field", "p:7", "--max-len", "4"),
        "0c706d35f4d216144cbebe4ff69474ebd675f8a42cce6ac0bc17d8e57b2e6e72",
    ),
    "center-line3000": (
        ("center", "line3000", "--verify"),
        "1604b11f6f5960cd100a6d27800e2ac1277dc3256bdee498b75ebd8a8d396378",
    ),
    "center-rose6": (
        ("center", "rose6", *VERIFY_ORACLE, "--max-len", "4"),
        "040baf71299e133ea11cd5235473d697092f858cf74361f27a985d26ccdbd262",
    ),
    "center-rose6-p7": (
        ("center", "rose6", *VERIFY_ORACLE, "--field", "p:7", "--max-len", "4"),
        "040baf71299e133ea11cd5235473d697092f858cf74361f27a985d26ccdbd262",
    ),
    "center-multi_exit-p2": (
        ("center", "multi_exit", *VERIFY_ORACLE, "--field", "p:2"),
        "56dc2b93ba86a4c07e12b0c34e8d2e9e2b66d72ba0476e06ec33faeed5977fae",
    ),
    "center-rose4-p2": (
        ("center", "rose4", *VERIFY_ORACLE, "--field", "p:2", "--max-len", "4"),
        "80c066e78abe369f251f0becf0c683ed3d1dc8704dd87a685992be8c09d37405",
    ),
    "center-campaign811": (
        ("center", "campaign811", *VERIFY_ORACLE),
        "ba7cff486631d0b936bd47f9c6bc58d8e2b690037d0f06ae88cf2b8082ee3607",
    ),
    "center-campaign811-text": (
        ("center", "campaign811", *VERIFY_ORACLE, "--format", "text"),
        "fac14d3d7c881a6191423aab683a5eb066c832633d82488fe9c04e0e7252f2dc",
    ),
    "center-campaign811-p7": (
        ("center", "campaign811", *VERIFY_ORACLE, "--field", "p:7"),
        "1eaf9b43df081a61975027065781db686de5491d506fcffd09093991a89e2633",
    ),
    "center-campaign811-p7-text": (
        ("center", "campaign811", *VERIFY_ORACLE, "--field", "p:7", "--format", "text"),
        "c75a2dc3ceadb3bb7a76826b60f46e7a15c7113a718f291013b04849cda789a0",
    ),
    "schema": (
        ("schema",),
        "620cc2bc1918223c27ef40cbc1386e0ab8037b03f08d1d941c39dd23ffcbbac5",
    ),
    "center-escaped": (
        ("center", "escaped", *VERIFY_ORACLE),
        "9433c59f98025b9faa1eb7700785402319821383f117c73899c8264f9af61112",
    ),
    "center-escaped-text": (
        ("center", "escaped", *VERIFY_ORACLE, "--format", "text"),
        "c806cc2ef7a4bb0e8b417c0fa6d654b4dfaa35e5e1af0351949fa52e6ca58fd0",
    ),
    "classify-entry_cases": (
        ("classify", "entry_cases"),
        "c47a4a46671064aa0bbeeba6c52cdcd53113128c7ac3c3c0c803190cb4f234e5",
    ),
    "center-entry_cases": (
        ("center", "entry_cases", *VERIFY_ORACLE),
        "af4604722493db3ba73808b9d767e88c728ffedad1f28e5e66b22868a5956b0c",
    ),
    "center-rose4-L6": (
        ("center", "rose4", *VERIFY_ORACLE, "--max-len", "6"),
        "bb0f1cdbc66b4c45e06efe2891547189564860d4c9daee0dc14041a59cb29fce",
    ),
    "center-rose4-L7-p7": (
        ("center", "rose4", *VERIFY_ORACLE, "--max-len", "7", "--field", "p:7"),
        "c603ac0362e65e571f27af0862e576600d6a899b108a1ea276aa745a7ff8d33e",
    ),
    "center-entry_cases-L9": (
        ("center", "entry_cases", *VERIFY_ORACLE, "--max-len", "9"),
        "07f22880a96888aa778cc2900d7eeae979746717c4b9b38a435274c59ade2948",
    ),
}


def _line(n):
    vs = [f"v{i}" for i in range(n)]
    return {
        "vertices": vs,
        "edges": [{"id": f"e{i}", "src": vs[i], "dst": vs[i + 1]} for i in range(n - 1)],
    }


# Graph documents that are not fixtures, recorded at the commit before the
# per-generator commutator became one pass over the element's terms: the
# 2-cycle u <-> v (degree window 4), a vertex with parallel edges, a loop
# and in-degree 2, and a 3,000-vertex line; the rose R_6 (one vertex with six
# loops, 1,296 degree-0 oracle candidates at --max-len 4) was recorded at the
# commit before the oracle's candidates were bucketed and its elimination
# split into blocks.  The report carries no field, so both fields print the
# same bytes.  The two cases over F_2, where -1 = 1, were recorded at the
# commit before the oracle rows became Python ints.  Graph 811 of the
# campaign500 stream (v1 -> v4, v1 -> v2), whose a[v4] = v1 + v4 - e2 e2*
# has a -1 coefficient, was recorded at a94bb7f, the commit before integral
# rationals became Python ints, in JSON and text over q and over p:7 (where
# -1 renders as 6).  `schema` and the graph whose vertex and edge names
# need escaping in JSON (a quote, a backslash, a newline, non-ASCII) were
# recorded at the commit before reports got their own indent-2 JSON writer.
# `entry_cases` holds one cycle for each way of finding an entry count,
# recorded at the commit before cycles were classified one strongly
# connected component at a time: a 3-cycle under a tail (its whole
# component, 4/12 entry/wrap paths), a loop feeding a loop (1/1, and
# INFINITE under a fed component), u <-> v with a loop at u (an
# edge-disjoint pair, both INFINITE), and x <-> y with a detour
# x -> z -> y under a tail (finite path counts in a component that holds
# two cycles, 6 each).  The oracle runs on rose4 at --max-len 6 and, over
# p:7, at 7, and on entry_cases at --max-len 9 were recorded at the commit
# before the oracle enumerated its candidates itself instead of filtering
# `normal_monomials`: an even and an odd bound, and vertices with no
# in-edge, one special in-edge, one other in-edge and several in-edges,
# where the forced-zero rule drops or keeps the top-length candidates.
INLINE_GRAPHS = {
    "two_cycle": {
        "vertices": ["u", "v"],
        "edges": [{"id": "e", "src": "u", "dst": "v"}, {"id": "f", "src": "v", "dst": "u"}],
    },
    "multi_exit": {
        "vertices": ["u", "v", "w"],
        "edges": [
            {"id": i, "src": src, "dst": dst}
            for i, src, dst in [
                ("a", "u", "v"), ("b", "u", "v"), ("c", "u", "u"), ("d", "v", "w"), ("f", "v", "u"),
            ]
        ],
    },
    "line3000": _line(3000),
    "rose6": {
        "vertices": ["v"],
        "edges": [{"id": f"e{i}", "src": "v", "dst": "v"} for i in range(1, 7)],
    },
    "rose4": {
        "vertices": ["v"],
        "edges": [{"id": f"e{i}", "src": "v", "dst": "v"} for i in range(1, 5)],
    },
    "campaign811": {
        "vertices": ["v1", "v2", "v3", "v4"],
        "edges": [{"id": "e1", "src": "v1", "dst": "v4"}, {"id": "e2", "src": "v1", "dst": "v2"}],
    },
    "escaped": {
        "vertices": ['ü"\\x', "t\nab"],
        "edges": [{"id": "é", "src": 'ü"\\x', "dst": "t\nab"}],
    },
    "entry_cases": {
        "vertices": ["t", "a1", "a2", "a3", "p", "q", "u", "v", "s", "x", "y", "z"],
        "edges": [
            {"id": i, "src": src, "dst": dst}
            for i, src, dst in [
                ("ta", "t", "a1"), ("a12", "a1", "a2"), ("a23", "a2", "a3"), ("a31", "a3", "a1"),
                ("lp", "p", "p"), ("pq", "p", "q"), ("lq", "q", "q"),
                ("uv", "u", "v"), ("vu", "v", "u"), ("lu", "u", "u"),
                ("sx", "s", "x"), ("xy", "x", "y"), ("yx", "y", "x"), ("xz", "x", "z"), ("zy", "z", "y"),
            ]
        ],
    },
}


@pytest.mark.parametrize("case", CLI_DIGESTS)
def test_cli_output_bytes_unchanged(case, capsys, tmp_path):
    args, digest = CLI_DIGESTS[case]
    if args[0] in ("classify", "center"):
        if args[1] in INLINE_GRAPHS:
            path = tmp_path / "g.json"
            path.write_text(json.dumps(INLINE_GRAPHS[args[1]]))
        else:
            path = FIXTURES / f"{args[1]}.json"
        args = (args[0], str(path), *args[2:])
    assert main(list(args)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# -- every document ends in a report or a clean input error ---------------------

documents = st.one_of(
    graph_documents().map(json.dumps),
    st.one_of(
        graph_documents(strict=False).map(json.dumps),
        wrong_fields(),
        st.integers(1, 100_000).map(lambda depth: "[" * depth + "]" * depth),
        st.integers(1, 100_000).map(lambda depth: '{"a":' * depth + "1" + "}" * depth),
        json_values.filter(lambda v: not isinstance(v, dict)).map(json.dumps),
        st.text(max_size=10),
    ),
)


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("documents") / "g.json"


@given(documents, st.sampled_from([["classify"], ["center", "--verify"]]))
@settings(max_examples=200, deadline=None)
def test_any_document_ends_cleanly(schema, document_path, text, command):
    document_path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command[0], str(document_path), *command[1:]])
    assert code in (0, 2, 3, 4)
    if code == 0:
        jsonschema.validate(json.loads(out.getvalue()), schema)
