"""Cross-model comparison scores over a complete statistics grid.

Two scores summarize a grid of fold statistics covering every model on
every (dataset, metric) cell:

* **Relative-gap score** (``p_ab``): per cell, the signed relative gap of a
  model's mean to the best mean in that cell, in percent. Orientation makes
  "worse than best" negative regardless of metric direction:

      higher better:  100 * (mu_a - mu_best) / mu_best
      lower better:   100 * (mu_best - mu_a) / mu_best

  The best model in a cell scores exactly 0 there. Sums are reported per
  metric and overall.

* **Selection-count score** (``p_1se``): per cell, an indicator that the
  one-standard-error rule picks this model; totals weight each metric by a
  configurable weight (default 1), so the overall score is the number of
  cells a model wins.

The grid must be complete (every model needs statistics in every cell),
otherwise the missing cells are reported in the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from ..errors import ConfigError, check_number
from .stats import FoldStats
from .rules import one_se_rule

Cell = tuple[str, str]  # (dataset, metric)


@dataclass
class SelectionScores:
    models: list[str]
    datasets: list[str]
    metrics: list[str]
    weights: dict[str, float]
    # percent relative gaps
    p_ab_cell: dict[tuple[str, str, str], float]      # (model, dataset, metric)
    p_ab_by_metric: dict[tuple[str, str], float]      # (model, metric)
    p_ab_total: dict[str, float]
    # 1SE indicators and weighted totals
    psi_cell: dict[tuple[str, str, str], int] = field(default_factory=dict)
    p_1se_total: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Nested-dict form (model -> dataset -> metric) for serialization."""

        def nest(cell: dict[tuple[str, str, str], float | int]) -> dict:
            out: dict = {}
            for model in self.models:
                per_ds: dict = {}
                for ds in self.datasets:
                    per_ds[ds] = {met: cell[(model, ds, met)]
                                  for met in self.metrics}
                out[model] = per_ds
            return out

        return {
            "models": list(self.models),
            "datasets": list(self.datasets),
            "metrics": list(self.metrics),
            "weights": {m: self.weights[m] for m in self.metrics},
            "p_ab_cell": nest(self.p_ab_cell),
            "p_ab_by_metric": {
                model: {met: self.p_ab_by_metric[(model, met)]
                        for met in self.metrics}
                for model in self.models},
            "p_ab_total": {m: self.p_ab_total[m] for m in self.models},
            "psi_cell": nest(self.psi_cell),
            "p_1se_total": {m: self.p_1se_total[m] for m in self.models},
        }


def _group_grid(grid: Sequence[FoldStats]
                ) -> tuple[list[str], list[str], list[str], dict[Cell, list[FoldStats]]]:
    if not grid:
        raise ConfigError("selection grid is empty")
    cells: dict[Cell, list[FoldStats]] = {}
    directions: dict[str, bool] = {}
    for s in grid:
        if s.metric in directions and directions[s.metric] != s.lower_better:
            raise ConfigError(
                f"metric {s.metric!r} has inconsistent direction flags")
        directions[s.metric] = s.lower_better
        cells.setdefault((s.dataset, s.metric), []).append(s)
    models = list(dict.fromkeys(s.model for s in grid))
    datasets = list(dict.fromkeys(s.dataset for s in grid))
    metrics = list(dict.fromkeys(s.metric for s in grid))
    present = {(s.model, s.dataset, s.metric) for s in grid}
    missing = [(mod, d, m) for d in datasets for m in metrics for mod in models
               if (mod, d, m) not in present]
    if missing:
        raise ConfigError(
            f"incomplete grid; missing (model, dataset, metric) cells: {missing}")
    return models, datasets, metrics, cells


def compute_selection(grid: Sequence[FoldStats],
                      complexity_order: Sequence[str],
                      weights: dict[str, float] | None = None) -> SelectionScores:
    """Evaluate both scores on a complete grid."""
    models, datasets, metrics, cells = _group_grid(grid)
    unknown = [m for m in models if m not in complexity_order]
    if unknown:
        raise ConfigError(
            f"models {unknown} are missing from the complexity order "
            f"{list(complexity_order)}")
    w = {m: 1.0 for m in metrics}
    if weights:
        extra = set(weights) - set(metrics)
        if extra:
            raise ConfigError(f"weights for unknown metrics: {sorted(extra)}")
        for k, v in weights.items():
            check_number(f"weight for {k!r}", v)
            w[k] = float(v)

    p_ab_cell: dict[tuple[str, str, str], float] = {}
    psi_cell: dict[tuple[str, str, str], int] = {}
    for (d, m), group in cells.items():
        best, chosen = one_se_rule(group, complexity_order)
        for s in group:
            if best.mu == 0.0:
                raise ConfigError(
                    f"relative gap undefined: best mean is 0 in cell ({d}, {m})")
            gap = (s.mu - best.mu) / best.mu
            if gap == 0.0:
                gap = 0.0  # avoid negative zero after orientation flip
            elif s.lower_better:
                gap = -gap
            p_ab_cell[(s.model, d, m)] = 100.0 * gap
            psi_cell[(s.model, d, m)] = 1 if s is chosen else 0

    p_ab_by_metric = {
        (mod, m): sum(p_ab_cell[(mod, d, m)] for d in datasets)
        for mod in models for m in metrics}
    p_ab_total = {
        mod: sum(p_ab_by_metric[(mod, m)] for m in metrics) for mod in models}
    p_1se_total = {
        mod: sum(w[m] * psi_cell[(mod, d, m)] for d in datasets for m in metrics)
        for mod in models}
    for mod, total in p_1se_total.items():
        if not math.isfinite(total):
            raise ConfigError(
                f"weights give {mod!r} a non-finite 1SE total ({total})")

    return SelectionScores(
        models=models, datasets=datasets, metrics=metrics, weights=w,
        p_ab_cell=p_ab_cell, p_ab_by_metric=p_ab_by_metric,
        p_ab_total=p_ab_total, psi_cell=psi_cell, p_1se_total=p_1se_total)

