"""Deterministic train/val/test splitting and k-fold partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmtl.data import SplitPlan, kfold_indices, split_indices
from cloudmtl.errors import ConfigError, DataError


def test_sizes_match_fractions():
    plan = SplitPlan(train=0.625, val=0.225, test=0.10, seed=7)
    tr, va, te = split_indices(1000, plan)
    assert (len(tr), len(va), len(te)) == (625, 225, 100)


def test_disjoint_and_cover():
    plan = SplitPlan(seed=3)
    tr, va, te = split_indices(500, plan)
    allidx = np.concatenate([tr, va, te])
    assert len(np.unique(allidx)) == len(allidx)
    assert set(allidx.tolist()) <= set(range(500))


def test_deterministic_by_seed():
    plan = SplitPlan(seed=11)
    a = split_indices(300, plan)
    b = split_indices(300, plan)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    other = split_indices(300, SplitPlan(seed=12))
    assert not all(np.array_equal(x, y) for x, y in zip(a, other))


def test_fraction_validation():
    with pytest.raises(ConfigError):
        split_indices(100, SplitPlan(train=0.9, val=0.2, test=0.1))
    with pytest.raises(ConfigError):
        split_indices(100, SplitPlan(train=-0.5, val=0.3, test=0.2))


def test_kfold_partition_exact():
    folds = kfold_indices(100, 5, seed=0)
    assert len(folds) == 5
    union = np.concatenate(folds)
    assert len(union) == 100
    assert set(union.tolist()) == set(range(100))


def test_kfold_near_equal_sizes():
    folds = kfold_indices(103, 5, seed=1)
    sizes = sorted(len(f) for f in folds)
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 103


def test_kfold_deterministic():
    a = kfold_indices(80, 4, seed=9)
    b = kfold_indices(80, 4, seed=9)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_kfold_validation():
    with pytest.raises(ConfigError):
        kfold_indices(10, 1, seed=0)
    with pytest.raises(DataError) as err:
        kfold_indices(3, 5, seed=0)
    assert str(err.value) == "k=5 exceeds the number of pixels n=3"


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=10, max_value=400),
    k=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_kfold_partition_property(n, k, seed):
    if k > n:
        return
    folds = kfold_indices(n, k, seed=seed)
    union = np.concatenate(folds)
    assert len(union) == n
    assert set(union.tolist()) == set(range(n))
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1


def test_split_of_no_pixels_is_refused():
    with pytest.raises(ConfigError) as err:
        split_indices(0, SplitPlan())
    assert str(err.value) == "cannot split an empty dataset (n=0)"
