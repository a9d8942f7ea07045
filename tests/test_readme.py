"""The README's Python examples run as written, from the repository root."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S | re.M
)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source, monkeypatch):
    monkeypatch.chdir(ROOT)
    exec(compile(source, "README.md", "exec"), {"__name__": "readme"})
