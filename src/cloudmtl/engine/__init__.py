"""Reverse-mode autodiff engine over float64 numpy arrays."""

from .tensor import (
    Tensor,
    constant,
    add,
    sub,
    mul,
    div,
    neg,
    matmul,
    transpose,
    dense,
    activation,
    relu,
    sigmoid,
    clamped_sigmoid,
    clamp,
    log,
    absval,
    l1_norm,
    reduce_sum,
    reduce_mean,
    softmax_rows,
    outer_rows,
    bmatvec,
    attention_mix,
    col,
    as_column,
    backward,
    no_grad,
    PROB_EPS,
)
from .params import ParamStore, glorot_uniform
from .optim import TrainConfig, AdamState, optimizer_step, global_grad_norm
from .gradcheck import GradCheckReport, finite_diff_check
from .checkpoint import dumps_deterministic, save_checkpoint, load_checkpoint

__all__ = [
    "Tensor", "constant", "add", "sub", "mul", "div", "neg", "matmul",
    "transpose", "dense", "activation", "relu", "sigmoid", "clamped_sigmoid",
    "clamp", "log", "absval", "l1_norm", "reduce_sum", "reduce_mean",
    "softmax_rows", "outer_rows", "bmatvec", "attention_mix", "col",
    "as_column", "backward", "no_grad", "PROB_EPS",
    "ParamStore", "glorot_uniform",
    "TrainConfig", "AdamState", "optimizer_step", "global_grad_norm",
    "GradCheckReport", "finite_diff_check",
    "dumps_deterministic", "save_checkpoint", "load_checkpoint",
]
