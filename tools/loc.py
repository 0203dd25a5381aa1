#!/usr/bin/env python3
"""Count the code lines of each src/latticediss/*.py and their total.

    python3 tools/loc.py
    python3 tools/loc.py path/to/tree

A code line is a line that holds part of a token other than a comment, a
line break or an indent: blank lines, comment lines and docstrings (the
string that opens a module, class or function body, as ast sees it) are not
counted, and a string or bracket spread over several lines counts each of
them.  Prints one "<count> <file>" line per module, in name order, then
"<total> total".
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines of one Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    total = 0
    for path in sorted((root / "src" / "latticediss").glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(n, path.name)
    print(total, "total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
