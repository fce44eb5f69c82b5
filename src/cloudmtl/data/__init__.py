"""Sensor registry, synthetic pixel generation, CSV I/O, and splitting."""

from .sensors import (
    SensorConfig, get_sensor, sensor_names, validate_sensor, SURFACE_TYPES,
)
from .dataset import (
    PixelDataset, Standardizer,
    LABEL_CLEAR, LABEL_LIQUID, LABEL_ICE, LABEL_NAMES,
    COT_LOG10_MIN, COT_LOG10_MAX,
)
from .synth import generate_dataset, cloud_growth, DEFAULT_PRIORS
from .csvio import save_csv, load_csv
from .splits import SplitPlan, split_indices, kfold_indices

__all__ = [
    "SensorConfig", "get_sensor", "sensor_names", "validate_sensor",
    "SURFACE_TYPES",
    "PixelDataset", "Standardizer",
    "LABEL_CLEAR", "LABEL_LIQUID", "LABEL_ICE", "LABEL_NAMES",
    "COT_LOG10_MIN", "COT_LOG10_MAX",
    "generate_dataset", "cloud_growth", "DEFAULT_PRIORS",
    "save_csv", "load_csv",
    "SplitPlan", "split_indices", "kfold_indices",
]
