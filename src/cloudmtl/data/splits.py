"""Deterministic train/validation/test splitting and K-fold partitioning.

Split sizes are literal floors of fraction * n; any remainder stays
unassigned (the default 0.625/0.225/0.10 plan uses 95% of the pixels).
Assignment order after the seeded shuffle is train, then validation, then
test, so the same (n, fractions, seed) always lands the same pixels in the
same split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class SplitPlan:
    train: float = 0.625
    val: float = 0.225
    test: float = 0.10
    seed: int = 0

    def validate(self) -> None:
        for name, frac in (("train", self.train), ("val", self.val),
                           ("test", self.test)):
            if not (0.0 <= frac <= 1.0) or not math.isfinite(frac):
                raise ConfigError(f"{name} fraction must be in [0, 1], got {frac}")
        if self.train + self.val + self.test > 1.0 + 1e-12:
            raise ConfigError(
                f"split fractions sum to {self.train + self.val + self.test}, "
                f"which exceeds 1")


def split_indices(n: int, plan: SplitPlan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (train_idx, val_idx, test_idx) over range(n)."""
    plan.validate()
    if n < 1:
        raise ConfigError(f"cannot split an empty dataset (n={n})")
    rng = np.random.default_rng(plan.seed)
    perm = rng.permutation(n)
    n_train = int(math.floor(plan.train * n))
    n_val = int(math.floor(plan.val * n))
    n_test = int(math.floor(plan.test * n))
    a, b, c = n_train, n_train + n_val, n_train + n_val + n_test
    return perm[:a], perm[a:b], perm[b:c]


def kfold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Partition range(n) into k disjoint folds covering every index once.

    Fold sizes differ by at most one; the first ``n % k`` folds get the extra
    element. Requires 2 <= k <= n.
    """
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if k > n:
        raise ConfigError(f"k={k} exceeds the number of pixels n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    base = n // k
    rem = n % k
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < rem else 0)
        folds.append(perm[start:start + size])
        start += size
    return folds
