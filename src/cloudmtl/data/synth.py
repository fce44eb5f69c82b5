"""Synthetic labeled pixels from a small closed-form radiative model:

* each surface type has a fixed smooth base spectrum (ocean dark with a blue
  bump, vegetated land with a red edge, bright desert, snow bright in the
  visible and dark in the SWIR);
* a cloudy pixel adds a cloud term ``0.75 * g(c) * f(lambda, phase)`` where
  ``g(c) = sigmoid(1.2 * (c - 0.3))`` grows monotonically with log10 optical
  thickness c, and f attenuates the SWIR more strongly for ice (absorption
  coefficient 0.75) than for liquid (0.35);
* the surface term is shadowed by the cloud: ``albedo * (1 - 0.85 * g(c))``;
* solar and view zenith angles modulate overall brightness;
* independent Gaussian noise (sd ``noise_sd``) is added per band and the
  result is clipped to [0, 1.5].

The ancillary scalars (pressure, water vapor, ozone) are independent
nuisance features. One seeded generator in a fixed draw order makes each
(sensor, n, seed, priors, noise_sd) bitwise reproducible.
"""

from __future__ import annotations

import numpy as np

from ..errors import check_number, require
from .dataset import (
    PixelDataset, LABEL_CLEAR, LABEL_LIQUID, LABEL_ICE,
    COT_LOG10_MIN, COT_LOG10_MAX,
)
from .sensors import SensorConfig, SURFACE_TYPES

DEFAULT_PRIORS = (0.4, 0.3, 0.3)  # clear, liquid, ice


def _sig(t: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-t))


def _surface_albedo_table(lam: np.ndarray) -> np.ndarray:
    """(4, B) base albedo per surface type at the given wavelengths (nm)."""
    land = 0.05 + 0.25 * _sig((lam - 700.0) / 60.0)
    snow = 0.90 - 0.75 * _sig((lam - 1350.0) / 120.0)
    desert = 0.15 + 0.20 * _sig((lam - 600.0) / 150.0)
    ocean = 0.03 + 0.04 * np.exp(-(((lam - 440.0) / 80.0) ** 2))
    table = np.stack([land, snow, desert, ocean])
    assert table.shape == (len(SURFACE_TYPES), lam.size)
    return table


def cloud_growth(cot_log10: np.ndarray) -> np.ndarray:
    """Monotone map from log10 COT to cloud signal strength in (0, 1)."""
    return _sig(1.2 * (cot_log10 - 0.3))


def generate_dataset(sensor: SensorConfig, n: int, seed: int,
                     priors: tuple[float, float, float] = DEFAULT_PRIORS,
                     noise_sd: float = 0.02) -> PixelDataset:
    """``n`` pixels of ``sensor`` with (clear, liquid, ice) class
    probabilities ``priors`` (non-negative, summing to 1) and per-band noise
    sd ``noise_sd``; the reflectance is built in place in two buffers. Bad
    arguments raise :class:`ConfigError`."""
    check_number("seed", seed, integer=True)
    check_number("noise_sd", noise_sd)
    priors_arr = np.asarray(priors, dtype=np.float64)
    require(("n", n >= 1, ">= 1", n),
            ("seed", seed >= 0, ">= 0", seed),
            ("priors", priors_arr.shape == (3,), "3 numbers", priors),
            ("priors", np.all(priors_arr >= 0) and abs(priors_arr.sum() - 1.0) <= 1e-9,
             "non-negative and sum to 1", priors),
            ("noise_sd", noise_sd >= 0, ">= 0", noise_sd))

    rng = np.random.default_rng(seed)
    label = rng.choice(3, size=n, p=priors_arr).astype(np.int64)
    surface = rng.integers(0, len(SURFACE_TYPES), size=n).astype(np.int64)
    pressure = rng.uniform(800.0, 1050.0, size=n)
    water_vapor = rng.uniform(1.0, 60.0, size=n)
    ozone = rng.uniform(220.0, 480.0, size=n)
    view_zenith = rng.uniform(0.0, 70.0, size=n)
    solar_zenith = rng.uniform(10.0, 75.0, size=n)
    rel_azimuth = rng.uniform(0.0, 180.0, size=n)
    # COT is drawn for every pixel to keep the stream layout fixed, then
    # blanked for clear pixels.
    cot = rng.uniform(COT_LOG10_MIN, COT_LOG10_MAX, size=n)
    cot_log10 = np.where(label == LABEL_CLEAR, np.nan, cot)

    lam = np.asarray(sensor.band_centers_nm, dtype=np.float64)
    g = np.where(label == LABEL_CLEAR, 0.0, cloud_growth(np.nan_to_num(cot_log10)))
    swir = _sig((lam - 1450.0) / 100.0)                     # (B,)
    absorb = np.zeros(n)
    absorb[label == LABEL_LIQUID] = 0.35
    absorb[label == LABEL_ICE] = 0.75
    illum = 0.75 + 0.25 * np.cos(np.radians(solar_zenith))
    view_factor = 1.0 - 0.08 * (1.0 - np.cos(np.radians(view_zenith)))

    # Two (n, B) buffers, each product written in place:
    # cloud = 0.75 g (1 - absorb swir),  refl = albedo (1 - 0.85 g) + cloud
    cloud = absorb[:, None] * swir[None, :]
    np.subtract(1.0, cloud, out=cloud)
    cloud *= 0.75 * g[:, None]
    refl = _surface_albedo_table(lam)[surface]
    refl *= 1.0 - 0.85 * g[:, None]
    refl += cloud
    refl *= (illum * view_factor)[:, None]
    del cloud
    noise = rng.normal(0.0, 1.0, size=(n, lam.size))
    noise *= noise_sd
    refl += noise
    del noise
    reflectance = np.clip(refl, 0.0, 1.5, out=refl)

    ds = PixelDataset(
        sensor=sensor, pressure=pressure, water_vapor=water_vapor, ozone=ozone,
        surface=surface, view_zenith=view_zenith, solar_zenith=solar_zenith,
        rel_azimuth=rel_azimuth, reflectance=reflectance, label=label,
        cot_log10=cot_log10,
    )
    ds.validate()
    return ds
