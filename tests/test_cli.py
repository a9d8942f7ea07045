import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from lpa.cli import main
from lpa.reports import build_envelope, load_schema
from lpa.fixtures import DOCUMENTS, graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "lpa.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def schema():
    return load_schema()


def test_fixture_files_match_inline_corpus():
    for name, doc in DOCUMENTS.items():
        on_disk = json.loads((FIXTURES / f"{name}.json").read_text())
        assert on_disk == doc


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


def test_center_bound_too_small_exits_4():
    code, _out, err = run_cli(
        "center", str(FIXTURES / "g_line3.json"), "--oracle", "--max-len", "1"
    )
    assert code == 4 and "bound" in err


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
    for name in DOCUMENTS:
        env = build_envelope(graph(name), verify=True)
        jsonschema.validate(env.to_json(), schema)


def test_envelope_byte_identical():
    g = graph("g_ext2")
    assert build_envelope(g, verify=True).dumps() == build_envelope(g, verify=True).dumps()
