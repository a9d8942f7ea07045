import re
from fractions import Fraction

import pytest

from corpus import FIXTURE_NAMES, graph
from lpa.randomgen import graph_stream

_ACCEPTANCE_RESULTS: dict[str, str] = {}
_CRITERION_RE = re.compile(r"test_criterion_(\d+)_(\w+)")


def pytest_runtest_logreport(report):
    match = _CRITERION_RE.search(report.nodeid)
    if not match:
        return
    num, name = int(match.group(1)), match.group(2)
    key = f"{num:02d} {name.replace('_', ' ')}"
    if report.when == "call":
        _ACCEPTANCE_RESULTS[key] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.failed:
        _ACCEPTANCE_RESULTS[key] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for key in sorted(_ACCEPTANCE_RESULTS):
        num, _, name = key.partition(" ")
        verdict = _ACCEPTANCE_RESULTS[key]
        terminalreporter.write_line(f"  criterion {int(num)} ({name}): {verdict}")


@pytest.fixture
def count_instances(monkeypatch):
    """count(cls) -> a one-item list that counts the instances of cls built
    from then on, until the test ends, by counting the calls of its
    `__init__`."""

    def count(cls):
        built = [0]
        init = cls.__init__

        def counting(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
        return built

    return count


@pytest.fixture
def count_fractions(monkeypatch):
    """A one-item list that counts the Fractions built from then on, until
    the test ends.  A Fraction is made in __new__, so count_instances does
    not see it."""
    built = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return built


@pytest.fixture(scope="session")
def fixture_graphs():
    return {name: graph(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def campaign500():
    """Main verification campaign: 500 graphs, <= 6 vertices, <= 12 edges."""
    return list(graph_stream(20260823, 500, 6, 12))


@pytest.fixture(scope="session")
def campaign100():
    """Oracle campaign: 100 graphs, <= 5 vertices, <= 10 edges."""
    return list(graph_stream(7, 100, 5, 10))
