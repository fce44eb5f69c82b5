"""Model variants, composite loss, prediction rules, and training loops."""

from .config import (
    ArchitectureSpec, VARIANTS, COMPLEXITY_ORDER, DEFAULT_BINS, VARIANT_SEQ,
)
from .network import Model, SequentialModel, ModelOutputs, build_model, cross_attention
from .losses import LossTargets, LossBreakdown, compute_loss
from .inference import (
    Predictions, predict, predictions_from_outputs,
    assign_thickness_bin, thickness_onehot,
)
from .training import (
    TrainResult, EpochRecord, train_model, history_csv, HISTORY_COLUMNS,
)

__all__ = [
    "ArchitectureSpec", "VARIANTS", "COMPLEXITY_ORDER", "DEFAULT_BINS",
    "VARIANT_SEQ",
    "Model", "SequentialModel", "ModelOutputs", "build_model", "cross_attention",
    "LossTargets", "LossBreakdown", "compute_loss",
    "Predictions", "predict", "predictions_from_outputs",
    "assign_thickness_bin", "thickness_onehot",
    "TrainResult", "EpochRecord", "train_model", "history_csv", "HISTORY_COLUMNS",
]
