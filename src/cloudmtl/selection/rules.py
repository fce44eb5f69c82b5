"""The one-standard-error selection rule for a single cell group.

Given the fold statistics of several models on the same (dataset, metric):

1. the *best* model has the best mean (largest, or smallest when lower is
   better); ties go to the model earliest in the complexity order;
2. the acceptance region is ``[mu_best - se_best, mu_best + se_best]``;
3. the *selected* model is the earliest-in-complexity-order model whose mean
   lies in the region, each candidate's interval widened by its own
   ``mu_quantum`` (zero for full-precision statistics).

So among models statistically indistinguishable from the best, the simplest
wins.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConfigError
from .stats import FoldStats


def _order_index(order: Sequence[str]) -> dict[str, int]:
    idx = {m: i for i, m in enumerate(order)}
    if len(idx) != len(order):
        raise ConfigError(f"complexity order contains duplicates: {order}")
    return idx


def _validate_group(group: Sequence[FoldStats], order_idx: dict[str, int]) -> None:
    if not group:
        raise ConfigError("one_se_rule needs at least one model's statistics")
    key = (group[0].dataset, group[0].metric, group[0].lower_better)
    seen: set[str] = set()
    for s in group:
        if (s.dataset, s.metric, s.lower_better) != key:
            raise ConfigError(
                f"mixed cells: ({s.dataset}, {s.metric}) vs {key[:2]}")
        if s.model in seen:
            raise ConfigError(f"duplicate statistics for model {s.model!r}")
        seen.add(s.model)
        if s.model not in order_idx:
            raise ConfigError(
                f"model {s.model!r} missing from the complexity order")


def one_se_rule(group: Sequence[FoldStats], complexity_order: Sequence[str]
                ) -> tuple[FoldStats, FoldStats]:
    """The (best, selected) entries of one cell group, checked once."""
    order_idx = _order_index(complexity_order)
    _validate_group(group, order_idx)
    lower = group[0].lower_better
    best = min(group, key=lambda s: (s.mu if lower else -s.mu,
                                     order_idx[s.model]))
    lo = best.mu - best.se
    hi = best.mu + best.se
    members = [s for s in group
               if lo - s.mu_quantum <= s.mu <= hi + s.mu_quantum]
    # best is always a member of its own region
    return best, min(members, key=lambda s: order_idx[s.model])

