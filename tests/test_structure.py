"""Variant and SEQ-stage names are spelled out in ``models/config.py`` alone,
and a subpackage exports only names used outside it.

Every other module of ``src/cloudmtl`` reads a variant's structure from its
flags and SEQ's stages from ``SEQ_STAGES``. So outside docstrings no string
constant there names a SEQ stage, and no comparison tests a string constant
(or a ``VARIANT_*`` name) against a variant name.
"""

import ast
import importlib
from pathlib import Path

import pytest

from cloudmtl.models import VARIANTS
from cloudmtl.models.config import SEQ_STAGES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cloudmtl"
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


SUBPACKAGES = sorted(p.parent.name for p in SRC.glob("*/__init__.py"))


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_every_export_is_used_outside_its_package(package):
    """A use is a name, an attribute, an imported name or a string constant
    (``bench/tracing.py`` reaches engine ops by name) in a module of
    ``src/``, ``bench/``, ``tools/`` or ``tests/`` outside the package."""
    used = set()
    for top in ("src", "bench", "tools", "tests"):
        for path in (ROOT / top).rglob("*.py"):
            if SRC / package in path.parents:
                continue
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(n, ast.Constant) and isinstance(n.value, str):
                    used.add(n.value)
                used.add(getattr(n, "id", getattr(n, "attr", None)))
                used.add(getattr(n, "name", None) if isinstance(n, ast.alias)
                         else None)
    exports = importlib.import_module(f"cloudmtl.{package}").__all__
    assert [name for name in exports if name not in used] == []
