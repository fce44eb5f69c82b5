"""Synthetic pixel generator: determinism, ranges, and learnable structure."""

import tracemalloc

import numpy as np
import pytest

from cloudmtl.data import SURFACE_TYPES, Standardizer, generate_dataset, get_sensor
from cloudmtl.errors import ConfigError


@pytest.fixture(scope="module")
def abi():
    return get_sensor("ABI")


def test_same_seed_bitwise_identical(abi):
    a = generate_dataset(abi, 200, seed=42)
    b = generate_dataset(abi, 200, seed=42)
    assert np.array_equal(a.reflectance, b.reflectance)
    assert np.array_equal(a.label, b.label)
    assert np.array_equal(a.cot_log10, b.cot_log10, equal_nan=True)


def test_different_seed_differs(abi):
    a = generate_dataset(abi, 200, seed=1)
    b = generate_dataset(abi, 200, seed=2)
    assert not np.array_equal(a.reflectance, b.reflectance)


def test_validates_clean(abi):
    ds = generate_dataset(abi, 500, seed=0)
    ds.validate()  # must not raise


def test_ranges(abi):
    ds = generate_dataset(abi, 1000, seed=3)
    assert ds.reflectance.min() >= 0.0
    assert ds.reflectance.max() <= 1.5
    cloudy = ds.cloudy_mask()
    assert np.all(np.isnan(ds.cot_log10[~cloudy]))
    assert np.all(ds.cot_log10[cloudy] >= -1.5)
    assert np.all(ds.cot_log10[cloudy] <= 2.5)
    assert set(np.unique(ds.label)) <= {0, 1, 2}


def test_priors_respected(abi):
    ds = generate_dataset(abi, 20000, seed=5, priors=(0.6, 0.2, 0.2))
    counts = ds.class_counts()
    assert abs(counts["clear"] / 20000 - 0.6) < 0.02
    assert abs(counts["liquid"] / 20000 - 0.2) < 0.02


def test_zero_noise_is_deterministic_function(abi):
    """With no noise, pixels with identical inputs map to identical rows."""
    ds = generate_dataset(abi, 300, seed=9, noise_sd=0.0)
    ds.validate()
    assert ds.reflectance.min() >= 0.0


def test_thick_clouds_brighter_than_thin(abi):
    """The response grows with optical thickness in non-absorbing bands."""
    ds = generate_dataset(abi, 20000, seed=7, noise_sd=0.0)
    cloudy = ds.cloudy_mask()
    cot = ds.cot_log10[cloudy]
    # band 0 (471 nm) is visible and non-absorbing
    refl = ds.reflectance[cloudy, 0]
    thick = refl[cot > 1.5]
    thin = refl[cot < -0.5]
    assert thick.mean() > thin.mean() + 0.1


def test_invalid_parameters(abi):
    with pytest.raises(ConfigError):
        generate_dataset(abi, 0, seed=0)
    with pytest.raises(ConfigError):
        generate_dataset(abi, 10, seed=0, priors=(0.9, 0.2, 0.2))
    with pytest.raises(ConfigError):
        generate_dataset(abi, 10, seed=0, noise_sd=-0.1)


def test_feature_matrix_shape_and_order(abi):
    ds = generate_dataset(abi, 50, seed=11)
    X = ds.feature_matrix()
    assert X.shape == (50, 16)
    # columns: pressure, water vapor, ozone, 4 surface one-hots, 3 angles, bands
    onehot = X[:, 3:7]
    assert np.array_equal(onehot.sum(axis=1), np.ones(50))
    assert np.array_equal(X[:, 7], ds.view_zenith)
    assert np.array_equal(X[:, 10:], ds.reflectance)


def copying_feature_matrix(ds):
    """The column stack as first written, with a final float64 copy."""
    n = len(ds)
    onehot = np.zeros((n, len(SURFACE_TYPES)), dtype=np.float64)
    onehot[np.arange(n), ds.surface] = 1.0
    return np.column_stack([
        ds.pressure, ds.water_vapor, ds.ozone, onehot,
        ds.view_zenith, ds.solar_zenith, ds.rel_azimuth, ds.reflectance,
    ]).astype(np.float64)


def test_feature_matrix_and_standardize_bytes_are_the_copying_expressions(abi):
    ds = generate_dataset(abi, 3000, seed=12)
    X = ds.feature_matrix()
    ref = copying_feature_matrix(ds)
    assert X.dtype == ref.dtype and X.tobytes() == ref.tobytes()
    std = Standardizer.fit(X[:2000])
    assert std.transform(X).tobytes() == ((X - std.mean) / std.scale).tobytes()


def _peak_above_start(fn, *args):
    """(result, peak bytes tracemalloc saw above the start of one call)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_feature_matrix_and_standardize_peak_is_about_the_result(abi):
    ds = generate_dataset(abi, 50_000, seed=12)
    X, peak = _peak_above_start(ds.feature_matrix)
    # the one-hot block is a quarter of the ABI matrix
    assert peak < 1.35 * X.nbytes, f"feature_matrix {peak / X.nbytes:.2f}x"
    std = Standardizer.fit(X)
    out, peak = _peak_above_start(std.transform, X)
    assert peak < 1.1 * out.nbytes, f"transform {peak / out.nbytes:.2f}x"
