"""Classification metrics: binary accuracy and area under the PR curve.

The PR curve sweeps thresholds over the distinct prediction scores in
descending order, grouping ties, and integrates with the step rule

    AU = sum_h (R_h - R_{h-1}) * P_h,    R_0 = 0

where R_h and P_h are recall and precision when everything scoring at least
the h-th distinct value is called positive.

The weighted (micro-averaged) variant pools several binary problems into
one score/label list before building a single curve, so every pixel
contributes once per class it participates in:

    R_h = sum_c TP_c(h) / sum_c P_c      P_h = sum_c TP_c(h) / sum_c (TP_c(h) + FP_c(h))
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
    """Recall and precision at each distinct descending score threshold.

    ``scores`` are finite float64 and ``labels`` bool (``_validate_binary``).
    The sort need not be stable: each tie group is cut at its last index,
    where the cumulative counts cover the whole group whatever its inner
    order, and ±0 compare equal, so they share a group. Beyond the curve it
    holds one float and one integer array of the input's length; the counts
    are integers, so recall and precision are exact quotients.
    """
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
    """Micro-averaged AUPRC over several (scores, labels) binary problems.

    The problems are pooled into one list sharing a common threshold axis;
    passing a single problem reproduces :func:`auprc_class` exactly.
    """
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
