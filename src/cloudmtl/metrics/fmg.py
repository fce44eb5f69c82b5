"""Fraction of meaningful retrievals among optically thick pixels.

A retrieval is "good" when its relative error is below a per-phase bar:
strictly < 0.25 for liquid clouds, < 0.35 for ice clouds. Only pixels whose
true log10 optical thickness exceeds 0.7 (linear COT about 5) are eligible;
thin clouds are excluded because the relative error of a near-zero log value
is not meaningful.

Relative error is ``|(y - y_hat) / y|``, by default on the log10 values the
model works in; ``space="linear"`` converts both sides through ``10**v``
first (eligibility is unchanged: the same pixels qualify either way).

A phase with no eligible pixels yields ``None`` for its fraction: absent,
never zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DimensionError, NumericError

ELIGIBLE_LOG10_MIN = 0.7
GOOD_REL_ERR = {"liquid": 0.25, "ice": 0.35}


@dataclass
class FmgResult:
    fmg_liquid: float | None
    fmg_ice: float | None
    eligible_liquid: int
    eligible_ice: int


def _phase_fraction(y: np.ndarray, y_hat: np.ndarray, bar: float,
                    space: str) -> tuple[float | None, int]:
    eligible = y > ELIGIBLE_LOG10_MIN
    n_eligible = int(eligible.sum())
    if n_eligible == 0:
        return None, 0
    ye, yhe = y[eligible], y_hat[eligible]
    if space == "linear":
        ye, yhe = np.power(10.0, ye), np.power(10.0, yhe)
    rel = np.abs((ye - yhe) / ye)
    return float(np.mean(rel < bar)), n_eligible


def fmg(y_log10: np.ndarray, y_hat_log10: np.ndarray, is_ice: np.ndarray,
        space: str = "log10") -> FmgResult:
    """Per-phase good-retrieval fractions over truly-cloudy pixels.

    ``is_ice`` is a boolean vector (False -> liquid) aligned with the COT
    vectors, which must be in log10 units.
    """
    if space not in ("log10", "linear"):
        raise ConfigError(f"space must be log10 or linear, got {space!r}")
    y = np.asarray(y_log10, dtype=np.float64)
    y_hat = np.asarray(y_hat_log10, dtype=np.float64)
    ice = np.asarray(is_ice).astype(bool)
    if y.ndim != 1 or y.shape != y_hat.shape or y.shape != ice.shape:
        raise DimensionError(
            f"shapes differ: y {y.shape}, y_hat {y_hat.shape}, is_ice {ice.shape}")
    if y.size and not (np.all(np.isfinite(y)) and np.all(np.isfinite(y_hat))):
        raise NumericError("COT vectors contain non-finite values")
    f_liq, n_liq = _phase_fraction(y[~ice], y_hat[~ice], GOOD_REL_ERR["liquid"], space)
    f_ice, n_ice = _phase_fraction(y[ice], y_hat[ice], GOOD_REL_ERR["ice"], space)
    return FmgResult(fmg_liquid=f_liq, fmg_ice=f_ice,
                     eligible_liquid=n_liq, eligible_ice=n_ice)
