"""Checkpoint serialization: parameters + configuration in a single JSON file.

Floats are rendered with 17 significant digits (``%.17g``), which round-trips
every float64 exactly, and the document layout is fully deterministic, so
saving the same state twice yields byte-identical files. Parameter entries
record name, rows, cols, a bias flag, and the row-major value list; biases
are stored with rows=1 and restored as 1-D vectors.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

import numpy as np

from ..atomic import atomic_write
from ..errors import DataError, NumericError
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
        if not obj:
            out.append("[]")
            return
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
            "bias": params.is_bias(name),
            "values": [float(x) for x in v.reshape(-1)],
        })
    doc = {
        "format_version": 1,
        "architecture": architecture,
        "config": config,
        "extras": extras,
        "parameters": entries,
    }
    text = dumps_deterministic(doc)
    with atomic_write(path) as f:
        f.write(text)


def load_checkpoint(path: str) -> dict:
    """Read a checkpoint; returns the document with values as float64 arrays.

    The returned dict has keys ``format_version``, ``architecture``,
    ``config``, ``extras`` and ``values`` (name -> ndarray).
    """
    if not os.path.exists(path):
        raise DataError(f"checkpoint file not found: {path}")
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise DataError(f"checkpoint {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict) or doc.get("format_version") != 1:
        raise DataError(
            f"checkpoint {path}: unsupported or missing format_version "
            f"{doc.get('format_version') if isinstance(doc, dict) else doc!r}")
    values: dict[str, np.ndarray] = {}
    for entry in doc.get("parameters", []):
        for key in ("name", "rows", "cols", "values"):
            if key not in entry:
                raise DataError(f"checkpoint {path}: parameter entry missing {key!r}")
        name = entry["name"]
        rows, cols = int(entry["rows"]), int(entry["cols"])
        vals = np.asarray(entry["values"], dtype=np.float64)
        if vals.size != rows * cols:
            raise DataError(
                f"checkpoint {path}: parameter {name!r} declares {rows}x{cols} "
                f"but carries {vals.size} values")
        ndim = int(entry.get("ndim", 2))
        if ndim == 1:
            values[name] = vals.reshape(cols)
        else:
            values[name] = vals.reshape(rows, cols)
    return {
        "format_version": 1,
        "architecture": doc.get("architecture"),
        "config": doc.get("config"),
        "extras": doc.get("extras"),
        "values": values,
    }
