"""Synthetic pixel generator: determinism, ranges, and learnable structure."""

import tracemalloc

import numpy as np
import pytest

from cloudmtl.data import SURFACE_TYPES, Standardizer, generate_dataset, get_sensor
from cloudmtl.data.dataset import (
    COT_LOG10_MAX, COT_LOG10_MIN, LABEL_CLEAR, LABEL_ICE, LABEL_LIQUID,
)
from cloudmtl.data.synth import (
    DEFAULT_PRIORS, _sig, _surface_albedo_table, cloud_growth,
)
from cloudmtl.errors import ConfigError, DataError


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


# ------------------------------------------------------------ in-place synthesis

def whole_array_reflectance(sensor, n, seed, noise_sd):
    """The reflectance as eight whole (n, B) arrays, as it was first written."""
    rng = np.random.default_rng(seed)
    label = rng.choice(3, size=n, p=np.asarray(DEFAULT_PRIORS)).astype(np.int64)
    surface = rng.integers(0, len(SURFACE_TYPES), size=n).astype(np.int64)
    rng.uniform(800.0, 1050.0, size=n)
    rng.uniform(1.0, 60.0, size=n)
    rng.uniform(220.0, 480.0, size=n)
    view_zenith = rng.uniform(0.0, 70.0, size=n)
    solar_zenith = rng.uniform(10.0, 75.0, size=n)
    rng.uniform(0.0, 180.0, size=n)
    cot = rng.uniform(COT_LOG10_MIN, COT_LOG10_MAX, size=n)
    cot_log10 = np.where(label == LABEL_CLEAR, np.nan, cot)

    lam = np.asarray(sensor.band_centers_nm, dtype=np.float64)
    albedo = _surface_albedo_table(lam)[surface]
    g = np.where(label == LABEL_CLEAR, 0.0, cloud_growth(np.nan_to_num(cot_log10)))
    swir = _sig((lam - 1450.0) / 100.0)
    absorb = np.zeros(n)
    absorb[label == LABEL_LIQUID] = 0.35
    absorb[label == LABEL_ICE] = 0.75
    phase_factor = 1.0 - absorb[:, None] * swir[None, :]
    cloud_term = 0.75 * g[:, None] * phase_factor
    surface_term = albedo * (1.0 - 0.85 * g[:, None])
    illum = 0.75 + 0.25 * np.cos(np.radians(solar_zenith))
    view_factor = 1.0 - 0.08 * (1.0 - np.cos(np.radians(view_zenith)))
    clean = (surface_term + cloud_term) * (illum * view_factor)[:, None]
    noise = rng.normal(0.0, 1.0, size=(n, lam.size)) * noise_sd
    return np.clip(clean + noise, 0.0, 1.5)


@pytest.mark.parametrize("sensor", ["OCI", "ABI", "VIIRS"])
@pytest.mark.parametrize("n", [1, 7, 2049])
@pytest.mark.parametrize("noise_sd", [0.0, 0.02])
def test_reflectance_is_bitwise_the_whole_array_chain(sensor, n, noise_sd):
    s = get_sensor(sensor)
    ds = generate_dataset(s, n, seed=n + 5, noise_sd=noise_sd)
    want = whole_array_reflectance(s, n, n + 5, noise_sd)
    assert ds.reflectance.dtype == want.dtype
    assert ds.reflectance.tobytes() == want.tobytes()


def test_generate_peak_is_about_the_result():
    # eight (n, B) arrays were alive at once before; two are now
    ds, peak = _peak_above_start(generate_dataset, get_sensor("OCI"), 2000, 3)
    result = sum(v.nbytes for v in vars(ds).values()
                 if isinstance(v, np.ndarray))
    assert peak <= 3 * result, f"generate_dataset {peak / result:.2f}x"


def _clear_pixel_with_thickness(ds):
    i = int(np.flatnonzero(ds.label == LABEL_CLEAR)[0])
    ds.cot_log10[i] = 0.5
    return i


#: (case, edit of a valid 12-pixel dataset, returning the pixel it edits
#: if the message names it; what ``validate`` says)
INVALID_DATASETS = [
    ("short column", lambda ds: setattr(ds, "ozone", ds.ozone[:-1]),
     "column 'ozone' has shape (11,), expected (12,)"),
    ("too few bands",
     lambda ds: setattr(ds, "reflectance", ds.reflectance[:, :-1]),
     "reflectance has shape (12, 5), expected (12, 6) for sensor ABI"),
    ("label 3", lambda ds: ds.label.__setitem__(4, 3),
     "pixel 4: label 3 not in {0,1,2}"),
    ("surface code 4", lambda ds: ds.surface.__setitem__(7, 4),
     "pixel 7: surface code 4 out of range"),
    ("clear with thickness", _clear_pixel_with_thickness,
     "pixel {i}: clear but cot_log10 is present"),
]


@pytest.mark.parametrize("case,edit,says", INVALID_DATASETS,
                         ids=[c[0] for c in INVALID_DATASETS])
def test_validate_names_what_is_wrong(case, edit, says):
    ds = generate_dataset(get_sensor("ABI"), 12, seed=2)
    says = says.replace("{i}", str(edit(ds)))
    with pytest.raises(DataError) as err:
        ds.validate()
    assert str(err.value) == says


def test_standardizer_refuses_no_rows_and_a_wrong_width():
    with pytest.raises(DataError) as err:
        Standardizer.fit(np.zeros((0, 3)))
    assert str(err.value) == "cannot fit standardizer on shape (0, 3)"
    std = Standardizer.fit(np.arange(12.0).reshape(4, 3))
    with pytest.raises(DataError) as err:
        std.transform(np.zeros((2, 2)))
    assert str(err.value) == ("feature dimension 2 does not match "
                              "standardizer dimension 3")
