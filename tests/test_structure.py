"""Variant and SEQ-stage names are spelled out in ``models/config.py`` alone.

Every other module of ``src/cloudmtl`` reads a variant's structure from its
flags and SEQ's stages from ``SEQ_STAGES``. So outside docstrings no string
constant there names a SEQ stage, and no comparison tests a string constant
(or a ``VARIANT_*`` name) against a variant name.
"""

import ast
from pathlib import Path

from cloudmtl.models import VARIANTS
from cloudmtl.models.config import SEQ_STAGES

SRC = Path(__file__).resolve().parents[1] / "src" / "cloudmtl"
CONFIG = SRC / "models" / "config.py"


def trees():
    """(path relative to the package, syntax tree) of each module but config."""
    paths = sorted(p for p in SRC.rglob("*.py") if p != CONFIG)
    assert len(paths) > 20
    return [(p.relative_to(SRC), ast.parse(p.read_text(encoding="utf-8")))
            for p in paths]


def strings(tree) -> list[tuple[int, str]]:
    """(line, value) of every string constant in ``tree`` but docstrings."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}
    return [(n.lineno, n.value) for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and id(n) not in docs]


def test_the_scan_sees_the_stage_names_in_config():
    found = {s for _, s in strings(ast.parse(CONFIG.read_text(encoding="utf-8")))}
    assert set(SEQ_STAGES) <= found and set(VARIANTS) <= found


def test_no_string_constant_names_a_seq_stage():
    found = [f"{path}:{line} {s!r}" for path, tree in trees()
             for line, s in strings(tree) if s in SEQ_STAGES]
    assert not found


def test_no_comparison_tests_against_a_variant_name():
    found = []
    for path, tree in trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            for operand in (node.left, *node.comparators):
                for n in ast.walk(operand):
                    name = getattr(n, "id", getattr(n, "attr", ""))
                    if (isinstance(n, ast.Constant) and n.value in VARIANTS
                            or name.startswith("VARIANT_")):
                        found.append(f"{path}:{node.lineno}")
    assert not found
