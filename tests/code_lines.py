#!/usr/bin/env python3
"""Print the non-docstring code lines of each module under `src/`.

    python3 tests/code_lines.py [ROOT]

A line counts when a code token (not a comment, a line break or an
indentation token) lies on it outside the docstrings of the modules,
classes and functions, which `ast` locates.  Blank lines and
comment-only lines do not count.  ROOT defaults to the `src` directory
beside `tests`.  The script runs outside the test suite, like
`quotient_sizes.py`.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    with tokenize.open(path) as handle:
        source = handle.read()
    skip = docstring_lines(ast.parse(source, str(path)))
    lines = set()
    with open(path, "rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in SKIP:
                lines.update(n for n in range(token.start[0], token.end[0] + 1)
                             if n not in skip)
    return len(lines)


def main(argv):
    root = Path(argv[1] if len(argv) > 1
                else Path(__file__).resolve().parent.parent / "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print("%5d %s" % (count, path.relative_to(root)))
    print("%5d total" % total)


if __name__ == "__main__":
    main(sys.argv)
