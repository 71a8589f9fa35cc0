"""List the statements of src/hybridsgd that the tier-1 tests never execute.

    python tools/uncovered.py [PYTEST_ARGS...]   # default: the whole tests/ directory

Needs only the standard library and pytest (no coverage package).  It runs pytest in this
interpreter under ``sys.settrace`` and ``threading.settrace``, with a line tracer that only follows
frames of ``src/hybridsgd``.  The statements of each module are found with ``ast``; one counts as
executed when a line event fell on it (a compound statement: on its header, before its body).
Docstrings and ``global``/``nonlocal`` declarations compile to no code and are not listed.  The
output is, per file, each statement line that never executed, then a total; the exit code is
pytest's.

Tracing makes the suite about twice as slow, so acceptance criterion 01, which asserts a wall-time
budget, is deselected; the output says so.  Its statements run in other tests too.
"""
import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hybridsgd"
SLOW = "tests/test_acceptance.py::test_criterion_01_estimator_unbiasedness"


def _statement_spans(tree: ast.Module) -> dict:
    """First line of each statement -> the lines a line event may report for it."""
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    spans = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        spans[node.lineno] = range(first, max(last, node.lineno) + 1)
    return spans


def main(argv: list) -> int:
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(str(PACKAGE)) else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main([*(argv or ["tests"]), "-q", "-p", "no:cacheprovider", "--deselect", SLOW])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"\nnot run, so not traced: {SLOW} (its wall-time budget does not hold under tracing)")
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        done = {line for name, line in hits if name == str(path)}
        missed = sorted(first for first, span in _statement_spans(ast.parse(source)).items()
                        if done.isdisjoint(span))
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} not executed")
        for line in missed:
            print(f"  {line}: {lines[line - 1].strip()}")
    print(f"{total} statement lines not executed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
