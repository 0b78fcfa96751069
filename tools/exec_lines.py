"""Count executable lines of Python source: no docstrings, comments or blanks.

A line counts when it holds some token other than a comment, a line break
or indentation, and is not part of a docstring (the string that opens a
module, class or function body). A statement spread over several lines
counts every line it spans, and so does a string literal that is not a
docstring.

    python tools/exec_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched for them (default:
``src``). Prints one ``count path`` line per file and then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def executable_lines(source):
    """The number of executable lines of the Python ``source`` text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv):
    files = []
    for arg in argv or ["src"]:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        count = executable_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path}")
    print(f"{total} total")


if __name__ == "__main__":
    main(sys.argv[1:])
