"""Evaluation metrics and the aggregate report."""

from .classification import acc_binary, auprc_class, auprc_weighted
from .regression import mse, r2
from .fmg import fmg
from .report import EvalReport, evaluate_predictions, METRIC_COLUMNS

__all__ = [
    "acc_binary", "auprc_class", "auprc_weighted",
    "mse", "r2",
    "fmg",
    "EvalReport", "evaluate_predictions", "METRIC_COLUMNS",
]
