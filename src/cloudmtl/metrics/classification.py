"""Binary accuracy and the area under the PR curve.

The curve's thresholds are the distinct scores, descending, and its area is

    AU = sum_h (R_h - R_{h-1}) * P_h,    R_0 = 0

with R_h and P_h the recall and precision when every score >= the h-th is
called positive. The weighted (micro-averaged) area pools every class's
(score, label) pairs into one curve.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import DimensionError, MetricUndefinedError, NumericError


def _validate_binary(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scores as float64 and the labels as bool, both checked."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.ndim != 1 or scores.shape != labels.shape:
        raise DimensionError(
            f"scores {scores.shape} and labels {labels.shape} must be equal-length vectors")
    if scores.size == 0:
        raise MetricUndefinedError("PR curve undefined on empty input")
    if not np.all(np.isfinite(scores)):
        raise NumericError("scores contain non-finite values")
    if labels.dtype != bool:
        labels_f = labels.astype(np.float64)
        if not np.all((labels_f == 0.0) | (labels_f == 1.0)):
            raise DimensionError("labels must be binary (0/1)")
        labels = labels_f == 1.0
    return scores, labels


def acc_binary(true_positive: np.ndarray, pred_positive: np.ndarray) -> float:
    """Fraction of agreeing entries between two boolean vectors."""
    t = np.asarray(true_positive).astype(bool)
    p = np.asarray(pred_positive).astype(bool)
    if t.shape != p.shape or t.ndim != 1:
        raise DimensionError(
            f"shapes {t.shape} and {p.shape} must be equal 1-D vectors")
    if t.size == 0:
        raise MetricUndefinedError("accuracy undefined on empty input")
    return float(np.mean(t == p))


def _pr_points(scores: np.ndarray, labels: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Recall and precision at each distinct descending score threshold, as
    exact quotients of integer counts, for checked ``scores`` and bool
    ``labels``. Each tie group (±0 included) is cut at its last index, so
    the sort need not be stable; it holds two arrays of the input's length."""
    key = np.negative(scores)
    order = np.argsort(key)
    np.take(scores, order, out=key, mode="clip")  # descending; clip: unbuffered
    tp_cum = order                                # the counts reuse the buffer
    tp_cum[...] = labels[order]
    np.cumsum(tp_cum, out=tp_cum)
    is_end = np.append(key[1:] != key[:-1], True)  # last index of a tie group
    del key
    group_end = np.flatnonzero(is_end)
    tp, total_pos = tp_cum[group_end], tp_cum[-1]
    del tp_cum
    group_end += 1                                # now the count called positive
    return tp / total_pos, np.divide(tp, group_end)


def _step_area(scores: np.ndarray, labels: np.ndarray) -> float:
    """The step-rule area under ``_pr_points``' curve."""
    recall, precision = _pr_points(scores, labels)
    step = np.diff(recall, prepend=0.0)
    step *= precision
    return float(np.sum(step))


def auprc_class(scores: np.ndarray, labels: np.ndarray) -> float:
    """Step-integrated area under the PR curve for one binary problem."""
    scores, labels = _validate_binary(scores, labels)
    if labels.sum() == 0:
        raise MetricUndefinedError("AUPRC undefined without positive labels")
    return _step_area(scores, labels)


def auprc_weighted(class_problems: Sequence[tuple[np.ndarray, np.ndarray]]) -> float:
    """Micro-averaged AUPRC over pooled (scores, labels) binary problems;
    one problem gives :func:`auprc_class` exactly."""
    if not class_problems:
        raise MetricUndefinedError("weighted AUPRC needs at least one class")
    pooled_scores = []
    pooled_labels = []
    for scores, labels in class_problems:
        s, l = _validate_binary(scores, labels)
        pooled_scores.append(s)
        pooled_labels.append(l)
    scores = np.concatenate(pooled_scores)
    labels = np.concatenate(pooled_labels)
    if labels.sum() == 0:
        raise MetricUndefinedError("weighted AUPRC undefined without positive labels")
    return _step_area(scores, labels)
