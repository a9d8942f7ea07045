"""Static checks on the package source, made with the standard library's
`ast`, since the project installs no linter, a check of what importing
the CLI loads, and a check that every package function runs on some CLI
path or is listed with the reason it stays.

This module imports no `lpa` module at its top level: the reachability
check imports it into a fresh interpreter only once its profile hook is
set, so that what runs at import counts too."""

import ast
import inspect
import io
import json
import os
import subprocess
import sys
import types
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "lpa"
# the modules whose coefficient arithmetic must stay exact, and the report
# writer, which prints the numbers itself
EXACT_MODULES = ("fields.py", "engine.py", "center.py", "reports.py")


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


def non_stdlib_imports(source: str) -> list[str]:
    """The modules a source imports by absolute name, nested imports
    included, whose top-level package is neither in the standard library
    (`sys.stdlib_module_names`) nor `lpa`, as "line: module".  Relative
    imports stay in the package and are not listed."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            f"{node.lineno}: {m}"
            for m in modules
            if m.partition(".")[0] not in sys.stdlib_module_names | {"lpa"}
        ]
    return found


def test_non_stdlib_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import json, numpy.linalg as la\n"
        "from lpa.graphs import Graph\n"
        "from . import engine\n"
        "from .fields import QQ\n"
        "from jsonschema import validate\n"
        "def f():\n"
        "    import importlib.resources, sympy\n"
        "    from os import path\n"
    )
    assert non_stdlib_imports(source) == ["2: numpy.linalg", "6: jsonschema", "8: sympy"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    """`lpa` runs on the standard library alone."""
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == []


# modules that `import lpa.cli` must not load: records are NamedTuples and
# slotted classes, so nothing needs `dataclasses` or the `inspect` it
# imports, and only `lpa schema` needs `importlib.resources`
STARTUP_UNWANTED = ("dataclasses", "inspect", "importlib.resources")


def test_cli_import_loads_no_unwanted_modules():
    """Without `site` (-S), which loads modules of its own, importing the
    CLI loads none of STARTUP_UNWANTED."""
    code = (
        "import json, sys, lpa.cli; "
        f"print(json.dumps([m for m in {STARTUP_UNWANTED!r} if m in sys.modules]))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert json.loads(proc.stdout) == []


# -- every package function runs on a CLI path, or is listed ----------------------


def defined_functions(source: str, name: str) -> list[tuple[str, int, str]]:
    """(module file name, first line, qualified name) of every function and
    method a module defines, nested ones included.  Lambdas, comprehensions
    and class bodies are left out."""
    found = []

    def walk(code):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                    found.append((name, const.co_firstlineno, const.co_qualname))
                walk(const)

    walk(compile(source, name, "exec"))
    return found


@contextmanager
def calls_recorded(called: set):
    """Add to `called` the (file, first line, qualified name) of every
    Python function that is entered in the block, through a profile hook."""

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield called
    finally:
        sys.setprofile(previous)


def unreached(defined, called) -> list[str]:
    """Each defined function that is not in `called`, as "file:qualified name"."""
    return sorted(f"{name}:{qual}" for name, line, qual in defined if (name, line, qual) not in called)


def test_unreached_functions_are_found(tmp_path):
    source = (
        "def used():\n"
        "    def inner():\n"
        "        return [x for x in (1, 2)]\n"
        "    return inner()\n"
        "def unused():\n"
        "    def never():\n"
        "        pass\n"
        "class C:\n"
        "    key = staticmethod(lambda x: x)\n"
        "    def method(self):\n"
        "        return 1\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 2\n"
        "used()\n"
        "C().method()\n"
    )
    path = tmp_path / "synthetic.py"
    path.write_text(source)
    called = set()
    with calls_recorded(called):
        exec(compile(source, str(path), "exec"), {})
    called = {(Path(f).name, line, qual) for f, line, qual in called}
    assert unreached(defined_functions(source, path.name), called) == [
        "synthetic.py:C.size", "synthetic.py:unused", "synthetic.py:unused.<locals>.never",
    ]


# Documents besides the fixtures: a rose, a vertex with two sinks below it,
# a loop with a tail into it, whose oracle elimination meets a pivot of -1
# and so takes its inverse through a Fraction, and documents that
# `parse_graph` or `Graph` rejects.
CLI_DOCUMENTS = {
    "rose3": {"vertices": ["v"], "edges": [{"id": f"e{i}", "src": "v", "dst": "v"} for i in range(3)]},
    "two_sinks": {
        "vertices": ["u", "v", "w"],
        "edges": [{"id": "a", "src": "u", "dst": "v"}, {"id": "b", "src": "u", "dst": "w"}],
    },
    "loop_with_tail": {
        "vertices": ["v", "t"],
        "edges": [{"id": "c", "src": "v", "dst": "v"}, {"id": "e", "src": "t", "dst": "v"}],
    },
}
BAD_DOCUMENTS = {
    "malformed": "{oops",
    "not_an_object": "[]",
    "edge_id": '{"vertices": ["u"], "edges": [{"id": 1, "src": "u", "dst": "u"}]}',
    "duplicate_vertex": '{"vertices": ["u", "u"]}',
}


def cli_paths(workdir: Path) -> list[tuple[list[str], int]]:
    """(argv, exit code) of the CLI runs the check drives, its documents
    written to workdir: `classify`, and `center --verify --oracle` over q
    and p:7, in JSON and text on every fixture and every CLI_DOCUMENTS
    graph; an oracle bound too small; `random` in JSON and text; `schema`;
    and the usage errors and rejected documents that exit 2."""
    fixtures = TESTS.parent / "fixtures"
    paths = {p.stem: p for p in sorted(fixtures.glob("*.json"))}
    for name, doc in {**CLI_DOCUMENTS, **BAD_DOCUMENTS}.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(doc if isinstance(doc, str) else json.dumps(doc))
    runs = []
    for name, path in paths.items():
        if name in BAD_DOCUMENTS:
            runs += [(["classify", str(path)], 2), (["center", str(path)], 2)]
            continue
        for fmt in ("json", "text"):
            runs.append((["classify", str(path), "--format", fmt], 0))
            for field in ("q", "p:7"):
                argv = ["center", str(path), "--verify", "--oracle", "--field", field]
                runs.append((argv + ["--format", fmt], 0))
    campaign = ["random", "--seed", "1", "--count", "20", "--max-vertices", "4", "--max-edges", "6"]
    runs += [
        (["center", str(paths["g_line3"]), "--oracle", "--max-len", "1"], 4),
        (campaign, 0),
        (campaign + ["--format", "text"], 0),
        (["schema"], 0),
        (["classify", str(workdir / "missing.json")], 2),
        (["center", str(paths["g_loop"]), "--degrees", "-1"], 2),
        (["random", "--seed", "1", "--count", "1", "--max-vertices", "0", "--max-edges", "1"], 2),
    ]
    return runs


def print_cli_calls(workdir: str) -> None:
    """Run every CLI path in this interpreter, `lpa` first imported under
    the profile hook, and print as JSON the exit codes and the package
    functions that ran, as (module file name, first line, qualified name)."""
    called, codes = set(), []
    with calls_recorded(called):
        import lpa.cli

        for argv, _code in cli_paths(Path(workdir)):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                codes.append(lpa.cli.main(argv))
    ran = sorted({(Path(f).name, line, q) for f, line, q in called if Path(f).parent == PACKAGE})
    print(json.dumps({"codes": codes, "called": ran}))


# The functions no CLI path runs, each with the reason it stays:
REASONS = {
    "a": "lpabench/tracing.py wraps it by name, or it is the element arithmetic "
    "or the monomial order that those names rest on",
    "b": "the product from the algebra's defining relations, kept for a check "
    "that does not rest on `generator_action`",
    "c": "it runs only when a check fails; the named test reaches it",
    "d": "library API that README shows",
}
UNREACHED = {
    "engine.py:AlgebraElement.__add__": "a",
    "engine.py:AlgebraElement.__mul__": "a",
    "engine.py:AlgebraElement.__neg__": "a",
    "engine.py:AlgebraElement.__rmul__": "a",
    "engine.py:AlgebraElement.__sub__": "a",
    "engine.py:AlgebraElement._check": "a",
    "engine.py:AlgebraElement.scale": "a",
    "engine.py:LeavittAlgebra.commutator": "a",
    "engine.py:LeavittAlgebra.enumerate_paths": "a",
    "engine.py:LeavittAlgebra.normal_monomials": "a",
    "engine.py:LeavittAlgebra.zero": "a",
    "engine.py:sort_key": "a",
    "engine.py:LeavittAlgebra.mono_mul_raw": "b",
    "engine.py:LeavittAlgebra.multiply": "b",
    "cli.py:_report_failure": "c test_cli.py::test_random_failure_prints_replay_witness",
    "engine.py:LeavittAlgebra.generator_labels": "c test_engine.py::test_is_central_examples",
    "engine.py:AlgebraElement.__bool__": "d",
    "engine.py:AlgebraElement.__eq__": "d",
    "engine.py:AlgebraElement.__hash__": "d",
    "engine.py:AlgebraElement.__repr__": "d",
    "engine.py:CentralityResult.__bool__": "d",
    "engine.py:LeavittAlgebra.edge": "d",
    "engine.py:LeavittAlgebra.ghost": "d",
    "engine.py:LeavittAlgebra.one": "d",
    "engine.py:LeavittAlgebra.vertex": "d",
    "graphs.py:Graph.__repr__": "d",
    "graphs.py:Graph.vertex_bits": "d",
    "graphs.py:_Infinite.__repr__": "d",
    "hereditary.py:HereditarySet.__eq__": "d",
    "hereditary.py:HereditarySet.__hash__": "d",
    "hereditary.py:HereditarySet.__repr__": "d",
    "hereditary.py:hereditary_closure": "d",
}


def test_every_unreached_entry_has_a_reason():
    for name, reason in UNREACHED.items():
        assert reason[0] in REASONS, name
        if reason[0] == "c":
            test_file, _, test_name = reason[2:].partition("::")
            assert f"def {test_name}(" in (TESTS / test_file).read_text(encoding="utf-8"), name


def test_every_package_function_runs_or_is_listed(tmp_path):
    """Each function in the package runs on some CLI path, or it is in
    UNREACHED with its reason; no entry there names a function that runs
    or that is gone."""
    code = f"import test_lint; test_lint.print_cli_calls({str(tmp_path)!r})"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS), str(PACKAGE.parent)]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    result = json.loads(proc.stdout)
    assert result["codes"] == [c for _argv, c in cli_paths(tmp_path)]
    defined = [
        f for path in sorted(PACKAGE.glob("*.py"))
        for f in defined_functions(path.read_text(encoding="utf-8"), path.name)
    ]
    missing = unreached(defined, {tuple(c) for c in result["called"]})
    assert [m for m in missing if m not in UNREACHED] == []
    assert [m for m in UNREACHED if m not in missing] == []
