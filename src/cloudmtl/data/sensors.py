"""Satellite imager band registry.

Three simulated instruments are supported. Band centers are in nanometers,
strictly increasing, and fixed:

* ``OCI``    233 bands: a hyperspectral grid of 226 centers starting at
             350 nm with 2.5 nm spacing, plus 7 discrete NIR/SWIR bands
             {940, 1040, 1250, 1378, 1620, 2130, 2260}.
* ``VIIRS``  10 bands {412, 445, 488, 555, 672, 865, 1240, 1380, 1610, 2250}.
* ``ABI``    6 bands {471, 640, 860, 1370, 1600, 2200}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

ANCILLARY_FEATURES = (
    "surface_pressure_mbar",
    "water_vapor_mm",
    "ozone_du",
)
SURFACE_TYPES = ("land", "snow", "desert", "ocean")
GEOMETRY_FEATURES = ("view_zenith_deg", "solar_zenith_deg", "rel_azimuth_deg")
# Non-reflectance feature count: 3 ancillary + 4 surface one-hot + 3 geometry.
BASE_FEATURE_COUNT = len(ANCILLARY_FEATURES) + len(SURFACE_TYPES) + len(GEOMETRY_FEATURES)


@dataclass(frozen=True)
class SensorConfig:
    name: str
    band_centers_nm: tuple[float, ...]

    @property
    def band_count(self) -> int:
        return len(self.band_centers_nm)

    @property
    def feature_dim(self) -> int:
        """Model input dimension M: ancillary + one-hot surface + geometry + bands."""
        return BASE_FEATURE_COUNT + self.band_count

    def band_columns(self) -> list[str]:
        return [f"refl_{_fmt_center(c)}" for c in self.band_centers_nm]


def _fmt_center(c: float) -> str:
    """Render a band center without trailing zeros: 350 -> '350', 352.5 -> '352.5'."""
    return f"{c:g}"


def _oci_centers() -> tuple[float, ...]:
    hyper = tuple(350.0 + 2.5 * i for i in range(226))
    discrete = (940.0, 1040.0, 1250.0, 1378.0, 1620.0, 2130.0, 2260.0)
    return hyper + discrete


_REGISTRY = {
    "OCI": SensorConfig("OCI", _oci_centers()),
    "VIIRS": SensorConfig(
        "VIIRS",
        (412.0, 445.0, 488.0, 555.0, 672.0, 865.0, 1240.0, 1380.0, 1610.0, 2250.0)),
    "ABI": SensorConfig("ABI", (471.0, 640.0, 860.0, 1370.0, 1600.0, 2200.0)),
}


def sensor_names() -> list[str]:
    return list(_REGISTRY)


def get_sensor(name: str) -> SensorConfig:
    """Look up a sensor by (case-sensitive) name; unknown names raise ConfigError."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown sensor {name!r}; available: {', '.join(_REGISTRY)}") from None


def validate_sensor(cfg: SensorConfig) -> None:
    centers = np.asarray(cfg.band_centers_nm, dtype=np.float64)
    if centers.ndim != 1 or centers.size == 0:
        raise ConfigError(f"sensor {cfg.name!r} has no bands")
    if not (np.isfinite(centers).all() and np.all(np.diff(centers) > 0)):
        raise ConfigError(
            f"sensor {cfg.name!r} band centers are not finite and strictly increasing")
