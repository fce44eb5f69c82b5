"""Metric hand cases and a brute-force PR-curve oracle."""

import math

import numpy as np
import pytest

from cloudmtl.errors import (
    ConfigError, DimensionError, MetricUndefinedError, NumericError,
)
from cloudmtl.metrics import (
    acc_binary, auprc_class, auprc_weighted, fmg, mse, r2,
)


# ------------------------------------------------------------------ accuracy

def test_accuracy_hand_case():
    t = np.array([1, 0, 1, 1], dtype=bool)
    p = np.array([1, 0, 0, 1], dtype=bool)
    assert acc_binary(t, p) == 0.75


def test_accuracy_validation():
    with pytest.raises(MetricUndefinedError):
        acc_binary(np.array([], dtype=bool), np.array([], dtype=bool))
    with pytest.raises(DimensionError):
        acc_binary(np.zeros(3, dtype=bool), np.zeros(4, dtype=bool))


# ------------------------------------------------------------------ AUPRC

def test_auprc_perfect_separation_is_exactly_one():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert auprc_class(scores, labels) == 1.0


def test_auprc_all_scores_tied():
    scores = np.full(4, 0.5)
    labels = np.array([1, 0, 1, 0])
    assert auprc_class(scores, labels) == 0.5


def test_auprc_all_positive_labels():
    scores = np.array([0.3, 0.9, 0.1])
    labels = np.ones(3)
    assert auprc_class(scores, labels) == 1.0


def test_auprc_hand_case():
    # thresholds 0.9, 0.8, 0.7: (R, P) = (1/2, 1), (1/2, 1/2), (1, 2/3)
    scores = np.array([0.9, 0.8, 0.7])
    labels = np.array([1, 0, 1])
    assert auprc_class(scores, labels) == pytest.approx(0.5 + 1.0 / 3.0,
                                                        abs=1e-15)


def test_auprc_validation():
    with pytest.raises(MetricUndefinedError):
        auprc_class(np.array([]), np.array([]))
    with pytest.raises(MetricUndefinedError):
        auprc_class(np.array([0.5, 0.3]), np.array([0, 0]))
    with pytest.raises(NumericError):
        auprc_class(np.array([np.nan, 0.3]), np.array([1, 0]))
    with pytest.raises(DimensionError):
        auprc_class(np.array([0.5, 0.3]), np.array([1, 2]))
    with pytest.raises(MetricUndefinedError):
        auprc_weighted([])


def brute_force_auprc(scores, labels):
    """Literal threshold sweep with python floats (the definition, slowly)."""
    total_pos = sum(labels)
    points = []
    for thr in sorted(set(scores), reverse=True):
        called = [s >= thr for s in scores]
        tp = sum(1 for c, l in zip(called, labels) if c and l)
        points.append((tp / total_pos, tp / sum(called)))
    area, prev_r = 0.0, 0.0
    for r, p in points:
        area += (r - prev_r) * p
        prev_r = r
    return area


def test_auprc_matches_brute_force_oracle():
    """200 random instances of every flavor (ties, skew, tiny n) at 1e-10."""
    rng = np.random.default_rng(42)
    for trial in range(200):
        n = int(rng.integers(2, 33))
        if trial % 3 == 0:
            scores = rng.choice([0.1, 0.5, 0.9], size=n)   # heavy ties
        elif trial % 3 == 1:
            scores = np.round(rng.random(n), 2)            # light ties
        else:
            scores = rng.random(n)
        labels = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
        if labels.sum() == 0:
            labels[int(rng.integers(n))] = 1.0
        got = auprc_class(scores, labels)
        want = brute_force_auprc(scores.tolist(), labels.tolist())
        assert got == pytest.approx(want, abs=1e-10), f"trial {trial}"


def test_weighted_auprc_single_problem_equals_class():
    rng = np.random.default_rng(7)
    scores = rng.random(20)
    labels = (rng.random(20) < 0.4).astype(float)
    labels[0] = 1.0
    assert auprc_weighted([(scores, labels)]) == auprc_class(scores, labels)


def test_weighted_auprc_equals_pooled_brute_force():
    rng = np.random.default_rng(8)
    for trial in range(50):
        problems = []
        for _ in range(int(rng.integers(2, 5))):
            n = int(rng.integers(2, 17))
            s = np.round(rng.random(n), 1)
            l = (rng.random(n) < 0.5).astype(float)
            problems.append((s, l))
        pooled_s = np.concatenate([s for s, _ in problems])
        pooled_l = np.concatenate([l for _, l in problems])
        if pooled_l.sum() == 0:
            continue
        got = auprc_weighted(problems)
        want = brute_force_auprc(pooled_s.tolist(), pooled_l.tolist())
        assert got == pytest.approx(want, abs=1e-10), f"trial {trial}"


def stable_sort_auprc(scores, labels):
    """The PR-curve area as computed with a stable sort of the scores."""
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    tp_cum = np.cumsum(y)
    n_cum = np.arange(1, s.size + 1, dtype=np.float64)
    group_end = np.append(np.flatnonzero(np.diff(s) != 0), s.size - 1)
    recall = tp_cum[group_end] / tp_cum[-1]
    precision = tp_cum[group_end] / n_cum[group_end]
    prev_r = np.concatenate(([0.0], recall[:-1]))
    return float(np.sum((recall - prev_r) * precision))


def test_auprc_is_bitwise_the_stable_sort_curve():
    """Tie groups of hundreds, both zero signs among them; single and pooled."""
    rng = np.random.default_rng(12)
    values = np.array([-0.0, 0.0, 0.25, 0.5, np.nextafter(0.5, 1.0), 1.0])
    for trial in range(30):
        problems = []
        for _ in range(int(rng.integers(1, 5))):
            n = int(rng.integers(20, 2000))
            labels = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(float)
            labels[0] = 1.0
            problems.append((rng.choice(values, size=n), labels))
        scores, labels = problems[0]
        assert auprc_class(scores, labels).hex() == \
            stable_sort_auprc(scores, labels).hex(), f"trial {trial}"
        pooled_s = np.concatenate([s for s, _ in problems])
        pooled_l = np.concatenate([l for _, l in problems])
        assert auprc_weighted(problems).hex() == \
            stable_sort_auprc(pooled_s, pooled_l).hex(), f"trial {trial}"


def float_label_auprc(scores, labels):
    """The PR-curve area from float labels and float cumulative sums, with
    the whole-array temporaries the curve was first written with."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(np.float64)
    order = np.argsort(-scores)
    s, y = scores[order], labels[order]
    tp_cum = np.cumsum(y)
    n_cum = np.arange(1, s.size + 1, dtype=np.float64)
    group_end = np.append(np.flatnonzero(np.diff(s) != 0), s.size - 1)
    recall = tp_cum[group_end] / tp_cum[-1]
    precision = tp_cum[group_end] / n_cum[group_end]
    prev_r = np.concatenate(([0.0], recall[:-1]))
    return float(np.sum((recall - prev_r) * precision))


@pytest.mark.parametrize("label_dtype", [bool, np.int64, float])
def test_auprc_is_bitwise_the_float_label_curve(label_dtype):
    """Integer counts and bool labels give the float curve's bytes, on tie
    groups of hundreds that mix both zero signs, single and pooled."""
    rng = np.random.default_rng(13)
    values = np.array([-0.0, 0.0, 1e-300, 0.3, np.nextafter(0.3, 0.0), 0.7])
    for trial in range(25):
        problems = []
        for _ in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 3000))
            labels = rng.random(n) < rng.uniform(0.05, 0.95)
            labels[-1] = True
            problems.append((rng.choice(values, size=n),
                             labels.astype(label_dtype)))
        for scores, labels in problems:
            assert auprc_class(scores, labels).hex() == \
                float_label_auprc(scores, labels).hex(), f"trial {trial}"
        pooled_s = np.concatenate([s for s, _ in problems])
        pooled_l = np.concatenate([l for _, l in problems])
        assert auprc_weighted(problems).hex() == \
            float_label_auprc(pooled_s, pooled_l).hex(), f"trial {trial}"


# ------------------------------------------------------------------ regression

def test_mse_hand_case():
    assert mse(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 2.0])) \
        == pytest.approx(1.0 / 3.0, abs=1e-16)


def test_r2_exactly_half():
    y = np.array([-1.0, 1.0])
    y_hat = np.array([0.0, 1.0])     # SSE = 1, SST = 2
    assert r2(y, y_hat) == 0.5


def test_r2_perfect_and_undefined():
    y = np.array([1.0, 2.0, 4.0])
    assert r2(y, y.copy()) == 1.0
    with pytest.raises(MetricUndefinedError):
        r2(np.full(3, 2.0), np.array([1.0, 2.0, 3.0]))


def test_regression_validation():
    with pytest.raises(MetricUndefinedError):
        mse(np.array([]), np.array([]))
    with pytest.raises(NumericError):
        mse(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(DimensionError):
        r2(np.zeros(3), np.zeros(2))


# ------------------------------------------------------------------ FMG

def test_fmg_hand_case():
    y = np.array([1.0, 2.0, 0.5, 1.0])
    y_hat = np.array([0.8, 1.4, 0.5, 0.7])
    ice = np.array([False, False, False, True])
    res = fmg(y, y_hat, ice)
    # liquid eligible: 1.0 (rel 0.2 good), 2.0 (rel 0.3 bad); 0.5 too thin
    assert res.fmg_liquid == 0.5
    assert res.eligible_liquid == 2
    # ice eligible: rel 0.3 < 0.35 -> good
    assert res.fmg_ice == 1.0
    assert res.eligible_ice == 1


def test_fmg_bars_are_strict():
    y = np.array([1.0, 1.0])
    y_hat = np.array([0.75, 0.65])   # rel exactly 0.25 and 0.35
    res = fmg(y, y_hat, np.array([False, True]))
    assert res.fmg_liquid == 0.0
    assert res.fmg_ice == 0.0


def test_fmg_eligibility_is_strict():
    res = fmg(np.array([0.7]), np.array([0.7]), np.array([False]))
    assert res.fmg_liquid is None      # absent, never zero
    assert res.eligible_liquid == 0


def test_fmg_no_ice_pixels():
    res = fmg(np.array([1.5]), np.array([1.5]), np.array([False]))
    assert res.fmg_ice is None and res.eligible_ice == 0
    assert res.fmg_liquid == 1.0


def test_fmg_linear_space_differs():
    """rel err 0.1 in log10 space is 10^0.2 - 1 ~ 58% in linear space."""
    y, y_hat = np.array([2.0]), np.array([2.2])
    ice = np.array([False])
    assert fmg(y, y_hat, ice).fmg_liquid == 1.0
    assert fmg(y, y_hat, ice, space="linear").fmg_liquid == 0.0
    with pytest.raises(ConfigError):
        fmg(y, y_hat, ice, space="sqrt")


def test_fmg_validation():
    with pytest.raises(DimensionError):
        fmg(np.zeros(2), np.zeros(3), np.zeros(2, dtype=bool))
    with pytest.raises(NumericError):
        fmg(np.array([np.nan]), np.array([1.0]), np.array([True]))


def test_scores_and_labels_of_different_lengths_are_refused():
    with pytest.raises(DimensionError) as err:
        auprc_class(np.zeros(3), np.zeros(2))
    assert str(err.value) == ("scores (3,) and labels (2,) must be "
                              "equal-length vectors")


def test_weighted_auprc_without_positives_is_undefined():
    with pytest.raises(MetricUndefinedError) as err:
        auprc_weighted([(np.array([0.2, 0.7]), np.array([0, 0])),
                        (np.array([0.4]), np.array([False]))])
    assert str(err.value) == "weighted AUPRC undefined without positive labels"
