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

from dataclasses import dataclass, field, fields, replace

import numpy as np

from ..errors import DataError
from .sensors import BASE_FEATURE_COUNT, SensorConfig, SURFACE_TYPES

LABEL_CLEAR = 0
LABEL_LIQUID = 1
LABEL_ICE = 2
LABEL_NAMES = {LABEL_CLEAR: "clear", LABEL_LIQUID: "liquid", LABEL_ICE: "ice"}

COT_LOG10_MIN = -1.5
COT_LOG10_MAX = 2.5


def check_cot_range(cot, where: str = "") -> None:
    """Raise DataError ``"<where>cot_log10 outside [MIN, MAX]"`` if ``cot``
    (a number or an array) leaves that range by over 1e-12; NaN passes."""
    if (np.any(cot < COT_LOG10_MIN - 1e-12)
            or np.any(cot > COT_LOG10_MAX + 1e-12)):
        raise DataError(
            f"{where}cot_log10 outside [{COT_LOG10_MIN}, {COT_LOG10_MAX}]")


#: the float fields, in record order: the ancillary values, then the geometry
FLOAT_COLUMNS = ("pressure", "water_vapor", "ozone",
                 "view_zenith", "solar_zenith", "rel_azimuth")


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
        for f in fields(self):
            arr = getattr(self, f.name)
            if f.name not in ("sensor", "reflectance") and arr.shape != (n,):
                raise DataError(f"column {f.name!r} has shape {arr.shape}, expected ({n},)")
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
        check_cot_range(self.cot_log10)  # NaN exactly on clear pixels now
        for name in FLOAT_COLUMNS:
            if not np.all(np.isfinite(getattr(self, name))):
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
        ]).astype(np.float64, copy=False)

    def cloudy_mask(self) -> np.ndarray:
        return self.label != LABEL_CLEAR

    def subset(self, idx: np.ndarray) -> "PixelDataset":
        return replace(self, **{f.name: getattr(self, f.name)[idx]
                                for f in fields(self) if f.name != "sensor"})

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
        out = features - self.mean
        out /= self.scale
        return out

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "scale": self.scale.tolist()}

    @classmethod
    def from_dict(cls, d) -> "Standardizer":
        """The standardizer of a :meth:`to_dict` document; raises DataError
        unless ``d`` lists finite means and as many finite positive scales."""
        if not isinstance(d, dict) or not {"mean", "scale"} <= set(d):
            raise DataError("standardizer must hold mean and scale")
        try:
            mean, scale = (np.asarray(d[k], float) for k in ("mean", "scale"))
        except (TypeError, ValueError) as e:
            raise DataError(f"standardizer: {e}") from None
        if (mean.ndim != 1 or scale.shape != mean.shape
                or not np.isfinite(np.concatenate([mean, scale])).all()):
            raise DataError("standardizer mean and scale must be equal-length "
                            f"finite lists, got shapes {mean.shape}, {scale.shape}")
        if not (scale > 0).all():
            raise DataError("standardizer scale must be positive")
        return cls(mean=mean, scale=scale)
