"""Cross-validation statistics and model-selection scoring."""

from .stats import FoldStats, fold_stats
from .scores import compute_selection, one_se_rule
from .gridio import (
    read_stats_grid, write_fold_values_csv, write_summary_csv,
    render_table, display_quantum,
)

__all__ = [
    "FoldStats", "fold_stats",
    "compute_selection", "one_se_rule",
    "read_stats_grid", "write_fold_values_csv", "write_summary_csv",
    "render_table", "display_quantum",
]
