"""Checkpoint serialization: parameters + configuration in a single JSON file.

Floats are rendered with 17 significant digits (``%.17g``), which round-trips
every float64 exactly, and the document layout is fully deterministic, so
saving the same state twice yields byte-identical files. Parameter entries
record name, rows, cols, a bias flag (true for a 1-D parameter), and the
row-major value list; biases are stored with rows=1 and restored as 1-D.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from ..atomic import write_text
from ..errors import DataError, NumericError, read_json
from .params import ParamStore


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise NumericError(f"cannot serialize non-finite value {x!r}")
    return "%.17g" % x


def _emit(obj: Any, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.append(pad + "  " + json.dumps(str(k)) + ": ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        # Flat numeric lists stay on one line; nested structures get newlines.
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
            parts = [_fmt_float(v) if isinstance(v, float) else str(v) for v in obj]
            out.append("[" + ", ".join(parts) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad + "  ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise DataError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_deterministic(doc: Any) -> str:
    """Render a JSON document with %.17g floats and stable layout."""
    out: list[str] = []
    _emit(doc, out, 0)
    out.append("\n")
    return "".join(out)


def save_checkpoint(path: str, params: ParamStore,
                    architecture: dict | None = None,
                    config: dict | None = None,
                    extras: dict | None = None) -> None:
    """Write parameters (plus optional metadata dicts) as one JSON document."""
    entries = []
    for name, t in params.items():
        v = t.value
        if v.ndim == 1:
            rows, cols = 1, v.shape[0]
        elif v.ndim == 2:
            rows, cols = v.shape
        else:
            raise DataError(
                f"checkpoint supports 1-D and 2-D parameters, {name!r} has "
                f"shape {v.shape}")
        entries.append({
            "name": name,
            "ndim": v.ndim,
            "rows": rows,
            "cols": cols,
            "bias": v.ndim == 1,
            "values": v.reshape(-1).tolist(),
        })
    doc = {
        "format_version": 1,
        "architecture": architecture,
        "config": config,
        "extras": extras,
        "parameters": entries,
    }
    write_text(path, dumps_deterministic(doc))


def load_checkpoint(path: str) -> dict:
    """The checkpoint in ``path``, read by :func:`~cloudmtl.errors.read_json`:
    its ``format_version``, ``architecture``, ``config``, ``extras`` and
    ``values`` (name -> float64 array). A parameter entry that is not an
    object with a new name, positive JSON integer ``rows``/``cols``, as many
    finite values and an integer ``ndim`` of 2, or of 1 with one row, raises
    :class:`DataError` naming the path and the parameter."""
    doc = read_json(path)
    if doc.get("format_version") != 1:
        raise DataError(
            f"checkpoint {path}: unsupported or missing format_version "
            f"{doc.get('format_version')!r}")
    entries = doc.get("parameters", [])
    if not isinstance(entries, list):
        raise DataError(f"checkpoint {path}: parameters must be a list")
    values: dict[str, np.ndarray] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DataError(f"checkpoint {path}: parameter entry {i} is not an object")
        for key in ("name", "rows", "cols", "values"):
            if key not in entry:
                raise DataError(f"checkpoint {path}: parameter entry missing {key!r}")
        name = entry["name"]
        where = f"checkpoint {path}: parameter {name!r}"
        if not isinstance(name, str):
            raise DataError(f"{where}: name must be a string")
        if name in values:
            raise DataError(f"{where} appears twice")
        rows, cols, ndim = entry["rows"], entry["cols"], entry.get("ndim", 2)
        for key, value in (("rows", rows), ("cols", cols), ("ndim", ndim)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise DataError(f"{where}: {key} must be an integer, got {value!r}")
        try:
            vals = np.asarray(entry["values"], dtype=np.float64)
        except (TypeError, ValueError) as e:
            raise DataError(f"{where}: {e}") from None
        if min(rows, cols) < 1 or vals.size != rows * cols:
            raise DataError(
                f"{where} declares {rows}x{cols} but carries {vals.size} values")
        if not np.isfinite(vals).all():
            raise DataError(f"{where} has null or non-finite values")
        if ndim not in (1, 2) or ndim == 1 and rows != 1:
            raise DataError(f"{where} declares ndim {ndim} for {rows}x{cols} values")
        values[name] = vals.reshape((rows, cols)[-ndim:])
    return {"format_version": 1,
            **{key: doc.get(key) for key in ("architecture", "config", "extras")},
            "values": values}
