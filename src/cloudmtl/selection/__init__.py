"""Cross-validation statistics and model-selection scoring."""

from .stats import FoldStats, fold_stats
from .rules import one_se_rule
from .scores import SelectionScores, compute_selection
from .gridio import (
    read_stats_grid, write_fold_values_csv, write_summary_csv,
    render_table, display_quantum,
)

__all__ = [
    "FoldStats", "fold_stats",
    "one_se_rule",
    "SelectionScores", "compute_selection",
    "read_stats_grid", "write_fold_values_csv", "write_summary_csv",
    "render_table", "display_quantum",
]
