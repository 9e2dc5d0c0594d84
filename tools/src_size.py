"""Size of the package source: lines of code per module and in total.

A line of code is a physical line that holds at least one token of code:
docstrings (a string statement first in a module, class or function body),
comments and blank lines are not counted, and a statement spread over
several lines counts each line it occupies.  The physical line count of
each file is printed beside it.

Usage, from the repository root:

    python tools/src_size.py [SRC_DIR]

SRC_DIR defaults to ``src/zenoprop``.  This is a development tool; it is not
part of the installed package.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers occupied by the docstrings of ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code, docstrings excluded."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> None:
    src = Path(argv[1] if len(argv) > 1 else "src/zenoprop")
    sizes = []
    for path in sorted(src.glob("*.py")):
        source = path.read_text()
        sizes.append((path.stem, code_lines(source), len(source.splitlines())))
    sizes.sort(key=lambda size: (-size[1], size[0]))
    print(f"{'module':<12} {'code':>6} {'lines':>6}")
    for name, code, lines in sizes:
        print(f"{name:<12} {code:>6} {lines:>6}")
    print(f"{'total':<12} {sum(s[1] for s in sizes):>6} {sum(s[2] for s in sizes):>6}")


if __name__ == "__main__":
    main(sys.argv)
