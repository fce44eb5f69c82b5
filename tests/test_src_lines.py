"""``tools/src_lines.py`` on a fixture source whose lines were counted by
hand: docstrings with their inner blank lines, ``#`` and ``#:`` comments,
blank lines, code with trailing comments and a non-docstring string."""

import importlib.util
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

# line kinds: docstring x3, blank, code, comment, code, blank x2, code,
# docstring x3, code x4 (the string is code), blank, comment
FIXTURE = '''"""Module docstring,

over three lines."""

import os
#: an attribute comment
RATE = 2  # a trailing comment


def f(x):
    """Function docstring,

    then its end."""
    text = """a string,
not a docstring
"""
    return text * x

    # a comment after a blank line
'''
WANT = {"code": 7, "docstring": 6, "comment": 2, "blank": 4}


def test_fixture_counted_by_hand():
    assert src_lines.count_lines(FIXTURE) == WANT


def test_main_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    out = subprocess.run([sys.executable, str(_PATH), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "file\tcode\tdocstring\tcomment\tblank",
        "b.py\t1\t0\t1\t1",
        "pkg/a.py\t7\t6\t2\t4",
        "total\t8\t6\t3\t5",
    ]
