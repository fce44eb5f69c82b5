"""Count a Python tree's lines as code, docstring, comment and blank.

    python3 tools/src_lines.py [root]        # root defaults to src

Prints one row per ``.py`` file under ``root`` (sorted by path) and a total
row. Each physical line falls in exactly one class:

* docstring: every line of a module, class or function docstring, the
  blank lines inside it included;
* comment: a line whose only token is a comment, ``#:`` lines included;
* blank: an empty or whitespace-only line outside a docstring;
* code: every other line, a line of code with a trailing comment and the
  lines of a string that is not a docstring included.

Docstrings are the first statement of a module, class or function body,
found with ``ast``; comments and code are told apart with ``tokenize``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def count_lines(source: str) -> dict[str, int]:
    """The number of lines of each kind in ``KINDS`` in ``source``."""
    lines = source.splitlines()
    kind = ["blank" if not line.strip() else None for line in lines]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            doc = node.body[0]
            kind[doc.lineno - 1:doc.end_lineno] = (
                ["docstring"] * (doc.end_lineno - doc.lineno + 1))
    code_rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT,
                            tokenize.ENDMARKER):
            code_rows.update(range(tok.start[0], tok.end[0] + 1))
    for row, k in enumerate(kind, start=1):
        if k is None:
            kind[row - 1] = "code" if row in code_rows else "comment"
    return {k: kind.count(k) for k in KINDS}


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src")
    total = dict.fromkeys(KINDS, 0)
    print("file", *KINDS, sep="\t")
    for path in sorted(root.rglob("*.py")):
        counts = count_lines(path.read_text(encoding="utf-8"))
        print(path.relative_to(root), *counts.values(), sep="\t")
        for k in KINDS:
            total[k] += counts[k]
    print("total", *total.values(), sep="\t")
    return 0


if __name__ == "__main__":
    sys.exit(main())
