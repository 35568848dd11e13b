"""The executable lines of ``src/phinabla`` that no tier-1 test runs.

Runs the tier-1 suite in this process under a ``sys.settrace`` line
tracer that follows only frames of ``src/phinabla``, then prints
``file:line: source`` for each executable line no test reached, in file
and line order, and a count to stderr.  A line is executable when the
compiler starts an instruction on it (``dis.findlinestarts``), docstrings
aside.  Tests that run the CLI in a subprocess count for nothing here.
Lines are reported whatever the tests' outcomes: under tracing the
wall-clock budget tests can fail.  Hypothesis draws from seed 0, so two
runs over the same tree and example database report the same lines.
The script imports the standard library and pytest only.
Run from the root of a checkout:

    python3 tools/untested_lines.py [PYTEST_ARGS ...]

Extra arguments go to pytest after the tier-1 ones (``-q
--continue-on-collection-errors --hypothesis-seed=0``); pytest's own
report goes to stderr.
"""

from __future__ import annotations

import ast
import contextlib
import dis
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "phinabla")


def executable_lines(source: str, path: str) -> set:
    """Line numbers that start an instruction, docstring lines aside."""
    lines, stack = set(), [compile(source, path, "exec")]
    while stack:
        co = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(co) if line)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_code"))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno,
                                              first.end_lineno + 1))
    return lines


def run_traced(pytest_args) -> dict:
    """{path: set of lines run} over the package while pytest runs."""
    hit = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE + os.sep):
            return None
        hit.setdefault(path, set()).add(frame.f_code.co_firstlineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            pytest.main(["-q", "--continue-on-collection-errors",
                         "--hypothesis-seed=0", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hit


def main(argv=None) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    hit = run_traced(sys.argv[1:] if argv is None else argv)
    missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        text = source.splitlines()
        for line in sorted(executable_lines(source, path)
                           - hit.get(path, set())):
            missed += 1
            print(f"{os.path.relpath(path, ROOT)}:{line}: "
                  f"{text[line - 1].strip()}")
    print(f"{missed} executable lines of src/phinabla ran in no test",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
