"""Per-pixel dataset container, feature assembly, and standardization.

A :class:`PixelDataset` stores columnar numpy arrays for n pixels:

* ancillary scalars: surface pressure (mbar), column water vapor (mm),
  total ozone (DU);
* surface type code (0..3 for land, snow, desert, ocean);
* viewing geometry: view zenith, solar zenith, relative azimuth (degrees);
* per-band top-of-atmosphere reflectances (n x B);
* label: 0 clear, 1 liquid cloud, 2 ice cloud;
* cot_log10: log10 cloud optical thickness, NaN for clear pixels.

``feature_matrix`` assembles the model input in a pinned column order:
[pressure, water_vapor, ozone, onehot(land, snow, desert, ocean),
 view_zenith, solar_zenith, rel_azimuth, reflectances...], so the input
dimension is M = 10 + B.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError
from .sensors import BASE_FEATURE_COUNT, SensorConfig, SURFACE_TYPES

LABEL_CLEAR = 0
LABEL_LIQUID = 1
LABEL_ICE = 2
LABEL_NAMES = {LABEL_CLEAR: "clear", LABEL_LIQUID: "liquid", LABEL_ICE: "ice"}

COT_LOG10_MIN = -1.5
COT_LOG10_MAX = 2.5


@dataclass
class PixelDataset:
    sensor: SensorConfig
    pressure: np.ndarray
    water_vapor: np.ndarray
    ozone: np.ndarray
    surface: np.ndarray          # int codes, index into SURFACE_TYPES
    view_zenith: np.ndarray
    solar_zenith: np.ndarray
    rel_azimuth: np.ndarray
    reflectance: np.ndarray      # (n, B)
    label: np.ndarray            # int {0, 1, 2}
    cot_log10: np.ndarray        # float, NaN where clear
    pixel_id: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.pixel_id is None:
            self.pixel_id = np.arange(len(self.label), dtype=np.int64)

    def __len__(self) -> int:
        return int(self.label.shape[0])

    @property
    def n_bands(self) -> int:
        return self.reflectance.shape[1]

    @property
    def feature_dim(self) -> int:
        return BASE_FEATURE_COUNT + self.n_bands

    def validate(self) -> None:
        n = len(self)
        cols = {
            "pressure": self.pressure, "water_vapor": self.water_vapor,
            "ozone": self.ozone, "surface": self.surface,
            "view_zenith": self.view_zenith, "solar_zenith": self.solar_zenith,
            "rel_azimuth": self.rel_azimuth, "label": self.label,
            "cot_log10": self.cot_log10, "pixel_id": self.pixel_id,
        }
        for name, arr in cols.items():
            if arr.shape != (n,):
                raise DataError(f"column {name!r} has shape {arr.shape}, expected ({n},)")
        if self.reflectance.shape != (n, self.sensor.band_count):
            raise DataError(
                f"reflectance has shape {self.reflectance.shape}, expected "
                f"({n}, {self.sensor.band_count}) for sensor {self.sensor.name}")
        # n-byte masks, no fancy-index copies (an error names the first
        # offending pixel), freed before the n x B reflectance check below
        bad = (self.label < LABEL_CLEAR) | (self.label > LABEL_ICE)
        if bad.any():
            i = int(bad.argmax())
            raise DataError(f"pixel {i}: label {self.label[i]} not in {{0,1,2}}")
        bad = (self.surface < 0) | (self.surface >= len(SURFACE_TYPES))
        if bad.any():
            i = int(bad.argmax())
            raise DataError(f"pixel {i}: surface code {self.surface[i]} out of range")
        cloudy = self.label != LABEL_CLEAR
        missing = np.isnan(self.cot_log10)
        bad = cloudy & missing
        if bad.any():
            i = int(bad.argmax())
            raise DataError(f"pixel {i}: cloudy but cot_log10 is missing")
        bad = ~(cloudy | missing)
        if bad.any():
            i = int(bad.argmax())
            raise DataError(f"pixel {i}: clear but cot_log10 is present")
        del bad, cloudy, missing
        # cot_log10 is NaN exactly on clear pixels now, and NaN compares False
        if (np.any(self.cot_log10 < COT_LOG10_MIN - 1e-12)
                or np.any(self.cot_log10 > COT_LOG10_MAX + 1e-12)):
            raise DataError(
                f"cot_log10 outside [{COT_LOG10_MIN}, {COT_LOG10_MAX}]")
        for name in ("pressure", "water_vapor", "ozone", "view_zenith",
                     "solar_zenith", "rel_azimuth"):
            if not np.all(np.isfinite(cols[name])):
                raise DataError(f"column {name!r} contains non-finite values")
        if not np.all(np.isfinite(self.reflectance)):
            raise DataError("reflectance contains non-finite values")

    def feature_matrix(self) -> np.ndarray:
        """Assemble the (n, M) model input in the pinned column order."""
        n = len(self)
        onehot = np.zeros((n, len(SURFACE_TYPES)), dtype=np.float64)
        onehot[np.arange(n), self.surface] = 1.0
        return np.column_stack([
            self.pressure, self.water_vapor, self.ozone,
            onehot,
            self.view_zenith, self.solar_zenith, self.rel_azimuth,
            self.reflectance,
        ]).astype(np.float64)

    # label helpers (float vectors, ready for loss arithmetic)
    def l_cloud(self) -> np.ndarray:
        return (self.label != LABEL_CLEAR).astype(np.float64)

    def l_clear(self) -> np.ndarray:
        return (self.label == LABEL_CLEAR).astype(np.float64)

    def l_liquid(self) -> np.ndarray:
        return (self.label == LABEL_LIQUID).astype(np.float64)

    def l_ice(self) -> np.ndarray:
        return (self.label == LABEL_ICE).astype(np.float64)

    def cloudy_mask(self) -> np.ndarray:
        return self.label != LABEL_CLEAR

    def subset(self, idx: np.ndarray) -> "PixelDataset":
        return PixelDataset(
            sensor=self.sensor,
            pressure=self.pressure[idx], water_vapor=self.water_vapor[idx],
            ozone=self.ozone[idx], surface=self.surface[idx],
            view_zenith=self.view_zenith[idx], solar_zenith=self.solar_zenith[idx],
            rel_azimuth=self.rel_azimuth[idx], reflectance=self.reflectance[idx],
            label=self.label[idx], cot_log10=self.cot_log10[idx],
            pixel_id=self.pixel_id[idx],
        )

    def class_counts(self) -> dict[str, int]:
        return {name: int(np.sum(self.label == code))
                for code, name in LABEL_NAMES.items()}


@dataclass
class Standardizer:
    """Per-feature z-scoring with statistics taken from a training split.

    Features with (near-)zero variance keep scale 1 so transformation stays
    finite; they end up constant-zero after centering.
    """

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "Standardizer":
        if features.ndim != 2 or features.shape[0] == 0:
            raise DataError(f"cannot fit standardizer on shape {features.shape}")
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        scale = np.where(std < 1e-12, 1.0, std)
        return cls(mean=mean, scale=scale)

    def transform(self, features: np.ndarray) -> np.ndarray:
        if features.shape[1] != self.mean.shape[0]:
            raise DataError(
                f"feature dimension {features.shape[1]} does not match "
                f"standardizer dimension {self.mean.shape[0]}")
        return (features - self.mean) / self.scale

    def to_dict(self) -> dict:
        return {"mean": [float(x) for x in self.mean],
                "scale": [float(x) for x in self.scale]}

    @classmethod
    def from_dict(cls, d: dict) -> "Standardizer":
        return cls(mean=np.asarray(d["mean"], dtype=np.float64),
                   scale=np.asarray(d["scale"], dtype=np.float64))
