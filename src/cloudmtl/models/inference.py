"""Hard predictions from model outputs, and thickness-bin assignment.

Decision rules:

* cloudy iff ``u_cloud >= threshold`` (default 0.5; a tie at the threshold
  counts as cloudy);
* for pixels called cloudy, phase is liquid iff ``u_liquid >= u_ice``
  (tie -> liquid), else ice;
* the regression output is reported only for pixels called cloudy;
* thickness bins partition [-1.5, 2.5] in log10 space as
  thin [-1.5, 0), moderate [0, 1), thick [1, 2.5]: half-open except the
  last, which includes both edges' closure at 2.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from .config import ArchitectureSpec
from .network import Model, ModelOutputs, checked_input, forward_chunks
from ..data.dataset import LABEL_CLEAR, LABEL_LIQUID, LABEL_ICE


def assign_thickness_bin(cot_log10: np.ndarray,
                         bins: tuple[float, float, float, float]) -> np.ndarray:
    """Map log10 COT values to bin indices {0: thin, 1: moderate, 2: thick}.

    Values outside [bins[0], bins[3]] raise :class:`DataError`.
    """
    v = np.asarray(cot_log10, dtype=np.float64)
    lo, e1, e2, hi = bins
    if np.any(v < lo) or np.any(v > hi):
        bad = v[(v < lo) | (v > hi)][0]
        raise DataError(
            f"cot_log10 value {bad} outside the bin range [{lo}, {hi}]")
    out = np.full(v.shape, 2, dtype=np.int64)
    out[v < e2] = 1
    out[v < e1] = 0
    return out


def thickness_onehot(cot_log10: np.ndarray, cloudy: np.ndarray,
                     bins: tuple[float, float, float, float]) -> np.ndarray:
    """(n, 3) one-hot of the thickness bin for cloudy pixels, zero rows else."""
    n = cot_log10.shape[0]
    onehot = np.zeros((n, 3), dtype=np.float64)
    if np.any(cloudy):
        idx = assign_thickness_bin(cot_log10[cloudy], bins)
        onehot[np.flatnonzero(cloudy), idx] = 1.0
    return onehot


@dataclass
class Predictions:
    """Hard per-pixel decisions plus the scores they were derived from."""

    label: np.ndarray        # {0 clear, 1 liquid, 2 ice}
    cloudy: np.ndarray       # bool
    cot_log10: np.ndarray    # float, NaN where predicted clear
    cot_raw: np.ndarray      # regression output for every pixel (unmasked)
    score_cloud: np.ndarray
    score_clear: np.ndarray
    score_liquid: np.ndarray  # joint path score for hierarchical variants
    score_ice: np.ndarray


def predictions_from_outputs(outputs: ModelOutputs, spec: ArchitectureSpec
                             ) -> Predictions:
    """The decision rules on ``outputs``, whose arrays the scores share."""
    u_cloud = outputs.u_cloud.value
    u_clear = outputs.u_clear.value
    u_liquid = outputs.u_liquid.value
    u_ice = outputs.u_ice.value
    cloudy = u_cloud >= spec.threshold
    liquid = u_liquid >= u_ice
    label = np.where(cloudy, np.where(liquid, LABEL_LIQUID, LABEL_ICE),
                     LABEL_CLEAR)
    cot = np.where(cloudy, outputs.y_cot_hat.value, np.nan)
    score_liquid, score_ice = u_liquid, u_ice
    if spec.flags.conditional_phase:
        # Phase heads only ever see (predicted-)cloudy pixels, so the
        # calibrated class score is the joint path probability.
        score_liquid, score_ice = u_cloud * u_liquid, u_cloud * u_ice
    return Predictions(
        label=label, cloudy=cloudy, cot_log10=cot,
        cot_raw=outputs.y_cot_hat.value, score_cloud=u_cloud,
        score_clear=u_clear, score_liquid=score_liquid, score_ice=score_ice)


def predict(model: Model, X: np.ndarray) -> Predictions:
    """Chunked eval-mode forwards (hard gating, no graph), then the rules."""
    X = checked_input(X, model.spec.input_dim)
    return predictions_from_outputs(
        forward_chunks(lambda rows: model.forward(X[rows]), len(X)), model.spec)
