"""List the statements of a package that a pytest run never executes.

    python3 tools/uncovered.py PACKAGE [PYTEST_ARGS ...]

For example, for the tier-1 suite of this repository:

    PYTHONPATH=src python3 tools/uncovered.py src/kdcollide -q --continue-on-collection-errors

PACKAGE is the directory of the package's modules.  The tool runs pytest in
this process with PYTEST_ARGS under a line tracer (`sys.settrace`, and
`threading.settrace` for the threads that the tests start) that records the
line events of code under PACKAGE only, then prints ``file:line: statement``
(the statement's first source line) for every statement of PACKAGE's modules
that had no line event, in file and line order.  A simple statement counts
as executed when any of its lines had an event; a compound statement (``if``,
``for``, ``with``, ...) is judged on its header, and its body statement by
statement.  Definitions (``def``, ``class``), imports, docstrings and other
constant expressions, ``global``, ``nonlocal`` and the ``try`` keyword are not
listed: they run as part of their module or emit no line event of their own.
Code that runs in a child process is not seen.  The exit status is pytest's.

`coverage` does this and more; this tool needs nothing but pytest.  Tracing
roughly doubles the run time of the suite.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections.abc import Iterator
from pathlib import Path

import pytest

USAGE = "usage: python3 tools/uncovered.py PACKAGE [PYTEST_ARGS ...]"
# Statements with no line event of their own; those among them with a body are judged statement by statement.
_UNLISTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Global,
             ast.Nonlocal, ast.Try, *((ast.TryStar,) if hasattr(ast, "TryStar") else ()))


def _statements(tree: ast.AST) -> Iterator[tuple[int, range]]:
    """(first line, the lines whose event executes it) of each listed statement of a module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _UNLISTED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, range(node.lineno, max(end, node.lineno) + 1)


def _trace(package: str, events: dict[str, set[int]]):
    """A global trace function that records the line events of code under ``package`` into ``events``."""
    recorders: dict[str, object] = {}

    def recorder(lines: set[int]):
        def record(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return record

        return record

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in recorders:
            path = os.path.realpath(filename)
            inside = path.startswith(package + os.sep)
            recorders[filename] = recorder(events.setdefault(path, set())) if inside else None
        return recorders[filename]

    return trace


def main(argv: list[str]) -> int:
    if not argv or argv[0].startswith("-"):
        print(USAGE, file=sys.stderr)
        return 2
    package = os.path.realpath(argv[0])
    if not os.path.isdir(package):
        print(f"error: no directory {argv[0]}", file=sys.stderr)
        return 2
    events: dict[str, set[int]] = {}
    trace = _trace(package, events)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv[1:])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(Path(package).rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, executed = source.splitlines(), events.get(str(path), set())
        shown = os.path.relpath(path) if path.is_relative_to(Path.cwd()) else str(path)
        for first, span in sorted(_statements(ast.parse(source))):
            if executed.isdisjoint(span):
                print(f"{shown}:{first}: {lines[first - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
