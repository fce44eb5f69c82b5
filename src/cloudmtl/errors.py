"""Exception taxonomy, the one setting check, the reader of every input file
and the checked reader that builds a config dataclass from a JSON document.

The CLI maps these onto exit codes: configuration/data/usage problems exit
with 2, runtime numeric failures with 1 (see cli.main).
"""

import dataclasses
import json
import math
import numbers
import types
import typing
from contextlib import contextmanager


class CloudMtlError(Exception):
    """Base class for package-specific errors."""


class DimensionError(CloudMtlError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(CloudMtlError, ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


class DataError(CloudMtlError, ValueError):
    """A dataset or file violates the documented schema or invariants."""


class NumericError(CloudMtlError, ArithmeticError):
    """A non-finite value appeared where the algorithm requires finiteness."""


class StateError(CloudMtlError, RuntimeError):
    """An operation was invoked in an invalid order or on missing state."""


class DeterminismError(CloudMtlError, RuntimeError):
    """Two evaluations that must agree bitwise did not."""


class MetricUndefinedError(CloudMtlError, ValueError):
    """A metric has no defined value for the given inputs (e.g. no positives)."""


def check_number(field: str, value, integer: bool = False) -> None:
    """Raise :class:`ConfigError` naming ``field`` unless ``value`` is a finite
    real number (an integer if ``integer``); a bool is neither, nor is an
    integer too large for a float64 in a float field."""
    kind = numbers.Integral if integer else numbers.Real
    try:
        ok = (not isinstance(value, bool) and isinstance(value, kind)
              and (integer or math.isfinite(value)))
    except OverflowError:
        ok = False
    if not ok:
        what = "an integer" if integer else "a finite number"
        raise ConfigError(f"{field} must be {what}, got {value!r}")


def require(*rules) -> None:
    """Raise :class:`ConfigError` ``"<name> must be <rule>, got <value!r>"``
    for the first rule ``(name, ok, rule, value)`` whose ``ok`` is false."""
    for name, ok, rule, value in rules:
        if not ok:
            raise ConfigError(f"{name} must be {rule}, got {value!r}")


def _check_value(field: str, value, kind) -> None:
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{field} must be a string, got {value!r}")
    elif kind in (int, float):
        check_number(field, value, integer=kind is int)
    elif isinstance(kind, types.UnionType):            # X | None
        if value is not None:
            _check_value(field, value, typing.get_args(kind)[0])
    elif not isinstance(value, tuple):                 # tuple[X, ...]
        raise ConfigError(
            f"{field} must be a tuple (a JSON list), got {value!r}")
    else:
        for v in value:
            _check_value(f"{field} entry", v, typing.get_args(kind)[0])


def check_fields(obj) -> None:
    """Raise :class:`ConfigError` naming the first field of dataclass ``obj``
    whose value does not fit its annotation: ``str``; ``int`` or ``float``
    (by :func:`check_number`); ``X | None``; or ``tuple[X, ...]``, whose
    items are named ``<field> entry``."""
    kinds = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        _check_value(f.name, getattr(obj, f.name), kinds[f.name])


def from_doc(cls, doc, what: str):
    """Construct dataclass ``cls`` from the JSON object ``doc``, the ``what``
    section of a document, with its lists passed as tuples. Raises
    :class:`ConfigError` if ``doc`` is not an object, names an unknown
    field or lacks a field that has no default."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be an object, got {doc!r}")
    fields = dataclasses.fields(cls)
    extra = set(doc) - {f.name for f in fields}
    if extra:
        raise ConfigError(f"unknown {what} fields: {sorted(extra)}")
    missing = [f.name for f in fields if f.name not in doc
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"missing {what} fields: {missing}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v
                  for k, v in doc.items()})


@contextmanager
def reading(path: str) -> typing.Iterator[typing.IO[str]]:
    """Open ``path`` as UTF-8 text, newlines as they are; a failure to open
    or read it, or bytes not UTF-8, raise :class:`DataError` naming it."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            yield f
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason})") from None


def read_json(path: str) -> dict:
    """The JSON object in ``path``, read by :func:`reading`; invalid JSON
    or another top level raises :class:`DataError` naming the path."""
    with reading(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # also too long or too deep
        raise DataError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: top level must be a JSON object")
    return doc
