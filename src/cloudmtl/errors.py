"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: configuration/data/usage problems exit
with 2, runtime numeric failures with 1 (see cli.main).
"""

import math
import numbers


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
    real number (an integer if ``integer``); a bool is neither."""
    kind = numbers.Integral if integer else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not (isinstance(value, numbers.Integral) or math.isfinite(value))):
        what = "an integer" if integer else "a finite number"
        raise ConfigError(f"{field} must be {what}, got {value!r}")
