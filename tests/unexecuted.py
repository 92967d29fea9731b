#!/usr/bin/env python3
"""Print each statement under `src/` that the benchmark's runs never
execute.

    PYTHONPATH=src python3 tests/unexecuted.py

The runs cover the 329-spec acceptance grid: `cli.run_record` at 17
samples and seeds 0 and 4, as `compute` runs it, then `verify_spec` and
`fault_checks`, as `verify` runs them.  A line trace (`sys.settrace`)
starts before the package is imported, so module-level code counts as
run.  A statement counts as executed when a line event falls on one of
its own lines: for a compound statement, its decorators and header up
to its first body statement.  Docstrings, `try` headers, `global` and
`nonlocal` make no line event of their own and are not listed.  The
script runs outside the test suite, like `growth.py`; it took 20 s on
a 2-vCPU VM with Python 3.11.
"""

import ast
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SILENT = (ast.Try, ast.Global, ast.Nonlocal)
BLOCKS = ("body", "orelse", "handlers", "finalbody")

executed = {}  # absolute path under SRC -> line numbers with a line event
paths = {}  # code file name -> its key in `executed`, or None


def trace_lines(frame, event, arg):
    if event == "line":
        executed[paths[frame.f_code.co_filename]].add(frame.f_lineno)
    return trace_lines


def trace_calls(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in paths:
        path = os.path.abspath(name)
        paths[name] = path if path.startswith(str(SRC) + os.sep) else None
        executed.setdefault(paths[name], set())
    return trace_lines if paths[name] else None


def docstrings(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(first)
    return out


def own_lines(node):
    """The lines of `node` outside the statements nested in it."""
    start = min([node.lineno]
                + [d.lineno for d in getattr(node, "decorator_list", ())])
    nested = [child.lineno for block in BLOCKS
              for child in getattr(node, block, ())]
    return range(start, min(nested) if nested else node.end_lineno + 1)


def unexecuted(path):
    """(line, source line) of each statement of `path` never run."""
    text = path.read_text()
    tree = ast.parse(text, str(path))
    skip = docstrings(tree)
    seen = executed.get(str(path), set())
    source = text.splitlines()
    return sorted(
        (node.lineno, source[node.lineno - 1].strip())
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and not isinstance(node, SILENT)
        and node not in skip and not seen.intersection(own_lines(node))
    )


def main():
    sys.settrace(trace_calls)
    from mcgtwist import cli
    from mcgtwist.surface import spec_grid

    for seed in (0, 4):
        for spec in spec_grid():
            cli.run_record(spec, 17, seed)
    for spec in spec_grid():
        cli.verify_spec(spec)
        cli.fault_checks(spec)
    sys.settrace(None)

    total = 0
    for path in sorted((SRC / "mcgtwist").rglob("*.py")):
        for line, text in unexecuted(path):
            print("%s:%d: %s" % (path.relative_to(SRC), line, text))
            total += 1
    print("%d statements never executed" % total)


if __name__ == "__main__":
    main()
