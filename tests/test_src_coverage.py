"""``tools/src_coverage.py``'s statement finder on a fixture source: which
lines are statements, and which lines' events mean each one ran."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "src_coverage.py"
_SPEC = importlib.util.spec_from_file_location("src_coverage", _PATH)
src_coverage = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_coverage)

FIXTURE = '''"""Module docstring."""

import os
from sys import path


class A:
    """Class docstring."""

    x: int
    y: int = 2

    def f(self, a):
        """Function docstring."""
        if a:
            return 1
        for i in range(
                a):
            pass
        try:
            b = (a +
                 1)
        except ValueError:
            raise
        "a bare string"
        return b
'''


def test_statements_and_the_lines_that_run_them():
    """Docstrings, a bare string, imports, ``class`` and ``def`` lines,
    ``x: int``, ``try`` and ``pass`` are not statements here."""
    assert src_coverage.statement_lines(FIXTURE) == {
        11: range(11, 12),        # y: int = 2
        15: range(15, 16),        # the if header, not its body
        16: range(16, 17),
        17: range(17, 19),        # the two header lines of the for
        21: range(21, 23),        # both lines of the assignment
        24: range(24, 25),
        26: range(26, 27),
    }

