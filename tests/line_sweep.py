"""List the function-body statements of src/rxcheck that no tier-1 test runs.

Usage, from anywhere:

  python tests/line_sweep.py

Runs the tier-1 selection (the pytest configuration's default, bench tests
left out) in this process under a line tracer limited to src/rxcheck, then
prints each statement inside a function or method that never ran, one
`path:line` per line, the path relative to the repository root. Docstrings
do not count. Exits with pytest's code when a test fails, else 1 when the
list is not empty and 0 when it is. Takes about 2 minutes on a 2-vCPU VM.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rxcheck"


def function_statements(source: str) -> dict[int, range]:
    """Each statement inside a function, by its first line: the lines on
    which running it reports a line event (a compound statement's header)."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and ast.get_docstring(node):
            docstrings.add(node.body[0])
    statements = {}
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for statement in ast.walk(function):
            if statement is function or not isinstance(statement, ast.stmt) or statement in docstrings:
                continue
            first = min([statement.lineno] + [d.lineno for d in getattr(statement, "decorator_list", ())])
            inner = getattr(statement, "body", None)
            last = max(inner[0].lineno - 1, statement.lineno) if inner else statement.end_lineno
            statements.setdefault(statement.lineno, range(first, last + 1))
    return statements


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    ran: defaultdict[str, set[int]] = defaultdict(set)
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "--rootdir", str(ROOT), str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran[str(path)]
        for line, span in sorted(function_statements(path.read_text(encoding="utf-8")).items()):
            if lines.isdisjoint(span):
                missed.append(f"{path.relative_to(ROOT)}:{line}")
    for line in missed:
        print(line)
    print(f"{len(missed)} function-body statements of src/rxcheck not run", file=sys.stderr)
    return int(code) or int(bool(missed))


if __name__ == "__main__":
    sys.exit(main())
