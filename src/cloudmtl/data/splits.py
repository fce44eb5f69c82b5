"""Deterministic train/validation/test splitting and K-fold partitioning.

Split sizes are literal floors of fraction * n; any remainder stays
unassigned (the default 0.625/0.225/0.10 plan uses 95% of the pixels).
Assignment order after the seeded shuffle is train, then validation, then
test, so the same (n, fractions, seed) always lands the same pixels in the
same split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ..errors import ConfigError, DataError, check_number, from_doc, require


@dataclass(frozen=True)
class SplitPlan:
    """Split fractions and shuffle seed: frozen, and checked when built; a
    seed that is not an integer >= 0, or fractions outside [0, 1] or summing
    past 1, raise :class:`ConfigError`."""

    train: float = 0.625
    val: float = 0.225
    test: float = 0.10
    seed: int = 0

    def __post_init__(self) -> None:
        check_number("split seed", self.seed, integer=True)
        fracs = {f"{f.name} fraction": getattr(self, f.name)
                 for f in fields(self) if f.name != "seed"}
        for name, frac in fracs.items():
            check_number(name, frac)
        total = sum(fracs.values())
        require(("split seed", self.seed >= 0, ">= 0", self.seed),
                *((name, 0.0 <= frac <= 1.0, "in [0, 1]", frac)
                  for name, frac in fracs.items()),
                ("the split fractions' sum", total <= 1.0 + 1e-12, "<= 1",
                 total))

    @classmethod
    def from_dict(cls, d: dict) -> "SplitPlan":
        return from_doc(cls, d, "split")


def split_indices(n: int, plan: SplitPlan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (train_idx, val_idx, test_idx) over range(n)."""
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
    element. A k below 2 raises ConfigError, one above n DataError.
    """
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if k > n:
        raise DataError(f"k={k} exceeds the number of pixels n={n}")
    return np.array_split(np.random.default_rng(seed).permutation(n), k)
