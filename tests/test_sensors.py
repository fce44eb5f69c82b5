"""Sensor registries: exact band counts and centers."""

import numpy as np
import pytest

from cloudmtl.data import SURFACE_TYPES, SensorConfig, get_sensor, sensor_names, validate_sensor
from cloudmtl.errors import ConfigError

VIIRS_CENTERS = (412, 445, 488, 555, 672, 865, 1240, 1380, 1610, 2250)
ABI_CENTERS = (471, 640, 860, 1370, 1600, 2200)
OCI_DISCRETE = (940, 1040, 1250, 1378, 1620, 2130, 2260)


def test_band_counts_exact():
    assert len(get_sensor("OCI").band_centers_nm) == 233
    assert len(get_sensor("VIIRS").band_centers_nm) == 10
    assert len(get_sensor("ABI").band_centers_nm) == 6


def test_viirs_centers_verbatim():
    assert tuple(get_sensor("VIIRS").band_centers_nm) == VIIRS_CENTERS


def test_abi_centers_verbatim():
    assert tuple(get_sensor("ABI").band_centers_nm) == ABI_CENTERS


def test_oci_hyperspectral_grid_plus_discrete():
    centers = tuple(get_sensor("OCI").band_centers_nm)
    hyper, discrete = centers[:226], centers[226:]
    assert discrete == OCI_DISCRETE
    assert hyper[0] == 350.0
    assert hyper[-1] == 912.5
    steps = np.diff(hyper)
    assert np.allclose(steps, 2.5)


def test_centers_strictly_increasing():
    for name in sensor_names():
        c = np.asarray(get_sensor(name).band_centers_nm)
        assert np.all(np.diff(c) > 0), name


def test_feature_dim_is_ten_plus_bands():
    assert get_sensor("ABI").feature_dim == 16
    assert get_sensor("VIIRS").feature_dim == 20
    assert get_sensor("OCI").feature_dim == 243


def test_unknown_sensor_lists_available():
    with pytest.raises(ConfigError, match="OCI"):
        get_sensor("MODIS")


def test_validate_rejects_disorder():
    cfg = SensorConfig("BAD", (500.0, 400.0))
    with pytest.raises(ConfigError):
        validate_sensor(cfg)


def test_surface_types_fixed():
    assert SURFACE_TYPES == ("land", "snow", "desert", "ocean")


def test_validate_rejects_no_bands():
    with pytest.raises(ConfigError) as err:
        validate_sensor(SensorConfig("NONE", ()))
    assert str(err.value) == "sensor 'NONE' has no bands"
