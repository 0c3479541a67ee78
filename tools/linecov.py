"""List the statements of ``src/qsynth`` that the tier-1 tests never run in-process.

    python3 tools/linecov.py               # runs tests/ under the tracer
    python3 tools/linecov.py -- -k cli     # arguments after -- go to pytest

Standard library only, so it needs no coverage package: ``sys.settrace``
records the line events of frames whose code lives under ``src/qsynth`` while
``pytest.main`` runs ``tests/``, and ``ast`` lists each module's statements.
A simple statement counts as run when any of its lines ran; a compound one
(``if``, ``for``, ``def``, ``class``, ...) when a line of its header ran, its
decorators included.  Docstrings, ``global`` and ``nonlocal`` make no line
events of their own and are not listed.  Subprocesses that the tests start
(``python -m qsynth.cli``) are not traced.

Prints ``path:line: source`` for each statement never run, then their
count; exits with pytest's status.  Tracing makes the suite a few times
slower.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qsynth"
SILENT = (ast.Global, ast.Nonlocal)


def statements(source: str):
    """``(line, lines that count as running it)`` for each statement that makes line events."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.add(first)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SILENT) or node in docstrings:
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        yield node.lineno, range(start, end + 1)


def trace_tests(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``tests/`` with a tracer on ``src/qsynth``; its status and the lines run per file."""
    import pytest

    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set())
        return local

    if any(name == "qsynth" or name.startswith("qsynth.") for name in sys.modules):
        raise RuntimeError("qsynth is imported before tracing starts, so its module-level lines would be missed")
    sys.settrace(calls)
    try:
        status = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
    return int(status), executed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pytest_args", nargs="*", help="extra pytest arguments, after --")
    args = parser.parse_args(argv)
    status, executed = trace_tests(args.pytest_args)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        ran = executed.get(str(path), set())
        lines = source.splitlines()
        for line, span in sorted(statements(source)):
            if ran.isdisjoint(span):
                missed.append(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
    print("\n".join(missed))
    print(f"{len(missed)} statements in src/qsynth never ran in-process")
    return status


if __name__ == "__main__":
    sys.exit(main())
