"""List the ``src/`` statements that a pytest run never executes.

    python3 tools/src_coverage.py [pytest args]     # default: the testpaths

Test paths are taken from the repository root, where the run takes place.

Runs pytest in this process with a line tracer (``sys.settrace``, and
``threading.settrace`` for the threads tests start) on frames whose file is
under ``src/``, with hypothesis derandomized so that two runs trace the same
examples. Then prints each statement no test ran, as ``path:line: source``,
and last their count. Subprocesses are not traced. The exit status is
pytest's. Standard library only: no coverage package is needed.

A statement counts as run when a line event fires on one of its own lines:
all of a simple statement's lines, or the header lines of an ``if``,
``for``, ``while``, ``with`` or ``match``. Lines that compile to no traced
code are not statements here: ``def`` and ``class`` lines, imports,
docstrings and other constant expressions, ``try``, ``pass``, ``global``,
``nonlocal`` and annotations without a value.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: statements that compile to no line event of their own
_SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
         ast.ImportFrom, ast.Try, ast.Pass, ast.Global, ast.Nonlocal)
if sys.version_info >= (3, 11):
    _SKIP += (ast.TryStar,)


def statement_lines(source: str) -> dict[int, range]:
    """Each statement's first line -> the lines whose events mean it ran."""
    out: dict[int, range] = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIP):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue                          # docstrings and bare constants
        if isinstance(node, ast.AnnAssign) and node.value is None:
            continue
        body = getattr(node, "body", None) or getattr(node, "cases", None)
        end = node.end_lineno
        if body:                              # a compound statement's header
            end = max(node.lineno, body[0].lineno - 1)
        out.setdefault(node.lineno, range(node.lineno, end + 1))
    return out


def _tracer(hits: dict[str, set[int]]):
    """A global trace function recording the line events of ``src/`` frames
    into ``hits`` (real path -> line numbers)."""
    files: dict[str, set[int] | None] = {}
    prefix = str(SRC) + os.sep

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = os.path.realpath(name)
            files[name] = (hits.setdefault(path, set())
                           if path.startswith(prefix) else None)
        lines = files[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local
    return trace


def never_run(hits: dict[str, set[int]]) -> list[tuple[Path, int, str]]:
    """(path, line, source) of every ``src/`` statement with no hit line."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, ran = source.splitlines(), hits.get(str(path.resolve()), set())
        for first, own in sorted(statement_lines(source).items()):
            if ran.isdisjoint(own):
                out.append((path, first, lines[first - 1].strip()))
    return out


def pytest_configure(config):
    """Derandomize hypothesis (a hook of this module as a pytest plugin, so
    that hypothesis is imported after pytest has set up its plugins)."""
    from hypothesis import settings

    settings.register_profile("src_coverage", derandomize=True,
                              database=None, deadline=None)
    settings.load_profile("src_coverage")


def main(argv: list[str] | None = None) -> int:
    import pytest

    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    hits: dict[str, set[int]] = {}
    trace = _tracer(hits)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(sys.argv[1:] if argv is None else argv)],
                             plugins=[sys.modules[__name__]])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = never_run(hits)
    for path, line, text in missed:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(missed)} src/ statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
