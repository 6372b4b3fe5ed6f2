"""List the statements of src/overlap_lab that no test runs.

Usage: python3 tools/unrun_lines.py

Runs the test suite (pytest on tests/, from the repository root) in this
process under sys.settrace and threading.settrace, tracing only code that
lives in src/overlap_lab, and records every line that runs.  A statement
counts as run when a line of its header ran: the whole of a simple
statement, or a compound statement's lines up to its body.  def and
class statements, imports and docstrings are left out.  Prints each
statement that never ran as path:line: text, then their count.  The list
is for reading, not a gate: the exit status is 0 whatever the suite or
the count.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest
from code_lines import docstring_lines

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "overlap_lab"
LEFT_OUT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(tree: ast.Module) -> dict[int, range]:
    """First line of each statement, mapped to the lines that count as running it."""
    docstrings = docstring_lines(tree)
    spans: dict[int, range] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, LEFT_OUT):
            continue
        if node.lineno in docstrings:
            continue
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        spans[node.lineno] = range(node.lineno, max(end, node.lineno) + 1)
    return spans


def run_suite() -> dict[str, set[int]]:
    """Run pytest on tests/ and return the lines run in each package file."""
    ran: dict[str, set[int]] = defaultdict(set)
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran


def main() -> int:
    ran = run_suite()
    unrun = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        executed = ran.get(str(path), set())
        for first, span in sorted(statements(ast.parse(source)).items()):
            if executed.isdisjoint(span):
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{unrun} statement lines that no test ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
