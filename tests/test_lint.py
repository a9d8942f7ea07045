"""Static checks on the package source, made with the standard library's
`ast`, since the project installs no linter."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "lpa"
# the modules whose coefficient arithmetic must stay exact
EXACT_MODULES = ("fields.py", "engine.py", "center.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by a module's top-level imports that the module never
    reads, a name listed in `__all__` counting as read."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import json as j\n"
        "from a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "def f():\n"
        "    import sys\n"
        "    return d(os.sep)\n"
    )
    assert unused_imports(source) == ["b", "j"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_imports_in_tests(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def inexact_operations(source: str) -> list[str]:
    """Where a module could leave exact arithmetic: each `/` (plain or
    augmented), float literal and `float(` call, as "line: what".  Exact
    division goes through `Fraction(k, piv)` or `pow(k, -1, p)`; `//` is
    floor division of ints and Fractions, which stays exact."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{node.lineno}: /")
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{node.lineno}: float literal {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append(f"{node.lineno}: float(")
    return found


def test_inexact_operations_are_found():
    source = (
        "def f(a, b):\n"
        "    a /= b\n"
        "    c = a / b + 0.5\n"
        "    d = float(c) + 1e3\n"
        "    return a // b, isinstance(d, float), Fraction(a, b), pow(a, -1, 7)\n"
    )
    assert inexact_operations(source) == [
        "2: /", "3: /", "3: float literal 0.5", "4: float(", "4: float literal 1000.0",
    ]


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_exact_modules_never_divide_or_use_floats(name):
    assert inexact_operations((PACKAGE / name).read_text(encoding="utf-8")) == []
