"""The fixture corpus: the graph documents in fixtures/*.json."""

from pathlib import Path

from lpa.graphs import Graph, parse_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.json"))


def graph(name: str) -> Graph:
    return parse_graph((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
