"""Count the code lines of Python sources: the lines that hold a token,
less comments, blank lines and docstrings.

A line counts when some token other than a comment, a newline, an indent
or a dedent starts or continues on it, and no docstring (the leading
string of a module, class or function body, as `ast` reads it) covers
it.  Run from the repository root:

    python tests/code_lines.py            # src/lpa
    python tests/code_lines.py PATH ...   # files, or directories searched for *.py

It prints each file's count, then the total."""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src/lpa"]:
        p = Path(arg)
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
