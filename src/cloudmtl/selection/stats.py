"""Per-cell cross-validation statistics.

A "cell" is one (model, dataset, metric) combination; its statistics are
the fold-mean ``mu`` and the standard error ``se = std(ddof=1) / sqrt(K)``.

``mu_quantum`` records the display resolution of ``mu`` when the statistics
were read back from a rounded table (half of the last printed decimal's
unit). Statistics computed from raw fold values carry quantum 0. The 1SE
membership test widens its interval by this amount, so full-precision data
follows the pure rule while published 3-decimal tables are compared at the
precision they actually carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, require


@dataclass(frozen=True)
class FoldStats:
    """One cell's statistics: frozen, and checked when built (``mu``, ``se``
    and ``mu_quantum`` finite, ``se`` and ``mu_quantum`` >= 0), else
    ConfigError."""

    model: str
    dataset: str
    metric: str
    lower_better: bool
    mu: float
    se: float
    k: int | None = None
    mu_quantum: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and math.isfinite(self.se)):
            raise ConfigError(
                f"non-finite statistics for ({self.model}, {self.dataset}, "
                f"{self.metric}): mu={self.mu}, se={self.se}")
        require(("se", 0 <= self.se < math.inf, "finite and >= 0", self.se),
                ("mu_quantum", 0 <= self.mu_quantum < math.inf,
                 "finite and >= 0", self.mu_quantum))


def fold_stats(model: str, dataset: str, metric: str, lower_better: bool,
               values) -> FoldStats:
    """Summarize per-fold metric values into (mu, se)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ConfigError(
            f"need at least 2 fold values for ({model}, {dataset}, {metric}), "
            f"got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(
            f"non-finite fold value for ({model}, {dataset}, {metric})")
    k = arr.size
    mu = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(k))
    return FoldStats(model=model, dataset=dataset, metric=metric,
                     lower_better=lower_better, mu=mu, se=se, k=k)
