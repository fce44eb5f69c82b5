"""CSV persistence for pixel datasets.

Schema (one header row, LF line endings, UTF-8):

    pixel_id,surface_pressure_mbar,water_vapor_mm,ozone_du,surface_type,
    view_zenith_deg,solar_zenith_deg,rel_azimuth_deg,refl_<center>...,
    label,cot_log10

``surface_type`` and ``label`` are symbolic (land/snow/desert/ocean and
clear/liquid/ice). ``cot_log10`` is empty exactly when the label is clear.
Floats are written with ``repr`` (shortest round-trip form), so a save/load
cycle reproduces every value bit for bit. Malformed files raise
:class:`~cloudmtl.errors.DataError` naming the offending line (1-based,
header = line 1).

``save_csv`` formats whole columns at a time (``map(repr, col.tolist())``)
and streams the file out in chunks of about ``_CHUNK_CELLS`` cells, so its
memory does not grow with the pixel count. The file is replaced atomically.

``load_csv`` has two paths that return the same arrays bit for bit:

* The fast path reads the file once in Python, checking each line's field
  count and parsing the four non-numeric columns (``pixel_id``,
  ``surface_type``, ``label``, ``cot_log10``), then parses the 6 + B numeric
  columns in C with one ``np.loadtxt``. It takes no file it cannot vouch
  for: any quote character, unknown symbol, unparseable or non-finite value
  or schema violation sends the whole file to the row-by-row path.
* The row-by-row path (``_load_rows``) is the validator: it parses with the
  ``csv`` module and raises every ``DataError`` with its line number.

The fast path counts fields itself because ``np.loadtxt`` with ``usecols``
silently accepts rows with extra or missing fields. It also streams the
file line by line rather than splitting the whole text, which would hold
every line of the file in memory at once.
"""

from __future__ import annotations

import csv
import math
from array import array
from typing import Callable

import numpy as np

from ..atomic import atomic_write
from ..errors import DataError
from .dataset import PixelDataset, LABEL_CLEAR, LABEL_NAMES
from .sensors import SensorConfig, SURFACE_TYPES, sensor_names, get_sensor

_FIXED_LEAD = ["pixel_id", "surface_pressure_mbar", "water_vapor_mm", "ozone_du",
               "surface_type", "view_zenith_deg", "solar_zenith_deg",
               "rel_azimuth_deg"]
_FIXED_TAIL = ["label", "cot_log10"]

_NAME_TO_LABEL = {v: k for k, v in LABEL_NAMES.items()}
_SURFACE_TO_CODE = {name: i for i, name in enumerate(SURFACE_TYPES)}

#: cells formatted per written chunk: 67 rows of OCI, 1,024 of ABI
_CHUNK_CELLS = 16384
#: file columns of the six ancillary floats (column 4 is ``surface_type``)
_ANCILLARY_COLUMNS = (1, 2, 3, 5, 6, 7)


def save_csv(dataset: PixelDataset, path: str) -> None:
    dataset.validate()
    header = _FIXED_LEAD + dataset.sensor.band_columns() + _FIXED_TAIL
    rows = max(1, _CHUNK_CELLS // len(header))
    with atomic_write(path) as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, len(dataset), rows):
            f.write(_format_rows(dataset, slice(lo, lo + rows)))


def _format_rows(ds: PixelDataset, rows: slice) -> str:
    """The CSV lines of ``rows``, each cell as the per-row writer printed it:
    ``str(int(x))`` for ids and ``repr(float(x))`` for floats."""
    def floats(col: np.ndarray) -> list:
        return np.asarray(col[rows], dtype=np.float64).tolist()

    cols = [map(str, map(int, ds.pixel_id[rows].tolist())),
            map(repr, floats(ds.pressure)),
            map(repr, floats(ds.water_vapor)),
            map(repr, floats(ds.ozone)),
            map(SURFACE_TYPES.__getitem__, ds.surface[rows].tolist()),
            map(repr, floats(ds.view_zenith)),
            map(repr, floats(ds.solar_zenith)),
            map(repr, floats(ds.rel_azimuth))]
    cols.extend(map(repr, band) for band in
                np.asarray(ds.reflectance[rows], dtype=np.float64).T.tolist())
    cols.append(map(LABEL_NAMES.__getitem__, map(int, ds.label[rows].tolist())))
    cols.append("" if math.isnan(c) else repr(c) for c in floats(ds.cot_log10))
    return "\n".join(map(",".join, zip(*cols))) + "\n"


def _parse_float(text: str, line: int, column: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise DataError(f"line {line}: column {column!r} is not numeric: {text!r}") from None
    if not math.isfinite(v):
        raise DataError(f"line {line}: column {column!r} is not finite: {text!r}")
    return v


def _sensor_from_header(band_cols: list[str], path: str) -> SensorConfig:
    centers = []
    for c in band_cols:
        try:
            centers.append(float(c[len("refl_"):]))
        except ValueError:
            raise DataError(f"{path}: malformed band column {c!r}") from None
    centers_t = tuple(centers)
    for name in sensor_names():
        if get_sensor(name).band_centers_nm == centers_t:
            return get_sensor(name)
    return SensorConfig("FILE", centers_t)


def _check_header(header: list[str], path: str,
                  sensor: SensorConfig | None) -> SensorConfig:
    """The sensor of a file with this header, cross-checked against ``sensor``."""
    if header[:len(_FIXED_LEAD)] != _FIXED_LEAD or header[-2:] != _FIXED_TAIL:
        raise DataError(
            f"{path}: header does not match the pixel CSV schema "
            f"(got {header[:3]}...{header[-2:]})")
    band_cols = header[len(_FIXED_LEAD):-2]
    if not band_cols or not all(c.startswith("refl_") for c in band_cols):
        raise DataError(f"{path}: reflectance columns missing or misnamed")
    file_sensor = _sensor_from_header(band_cols, path)
    if sensor is not None:
        if file_sensor.band_centers_nm != sensor.band_centers_nm:
            raise DataError(
                f"{path}: band columns ({len(band_cols)} bands) do not match "
                f"sensor {sensor.name} ({sensor.band_count} bands)")
        file_sensor = sensor
    return file_sensor


def load_csv(path: str, sensor: SensorConfig | None = None) -> PixelDataset:
    """Read a pixel CSV; if ``sensor`` is given the band columns must match it."""
    try:
        ds = _load_fast(path, sensor)
    except (OSError, ValueError, KeyError, OverflowError):
        ds = None
    return _load_rows(path, sensor) if ds is None else ds


def _load_fast(path: str, sensor: SensorConfig | None) -> PixelDataset | None:
    """The dataset in ``path``, or None (or a raised error) whenever the
    row-by-row path might read the file differently."""
    # A line within the csv module's field size limit holds no field over it.
    max_line = csv.field_size_limit()
    pixel_id, surface, label = array("q"), array("q"), array("q")
    cot = array("d")
    with open(path, "r", encoding="utf-8", newline="") as f:
        head = f.readline().rstrip("\r\n")
        if '"' in head or len(head) > max_line:
            return None
        header = head.split(",")
        file_sensor = _check_header(header, path, sensor)
        commas = len(header) - 1
        for line in f:
            line = line.rstrip("\r\n")
            if not line:
                continue
            if line.count(",") != commas or '"' in line or len(line) > max_line:
                return None
            lead = line.split(",", 5)
            tail = line.rsplit(",", 2)
            pixel_id.append(int(lead[0]))
            surface.append(_SURFACE_TO_CODE[lead[4]])
            code = _NAME_TO_LABEL[tail[1]]
            label.append(code)
            if (code == LABEL_CLEAR) != (tail[2] == ""):
                return None
            cot.append(math.nan if code == LABEL_CLEAR else float(tail[2]))
    if not label:
        return None
    usecols = [*_ANCILLARY_COLUMNS, *range(len(_FIXED_LEAD), commas - 1)]
    block = np.loadtxt(path, delimiter=",", skiprows=1, usecols=usecols,
                       comments=None, quotechar=None, encoding="utf-8",
                       ndmin=2)
    pressure, water_vapor, ozone, view_zenith, solar_zenith, rel_azimuth = (
        block[:, k].copy() for k in range(len(_ANCILLARY_COLUMNS)))
    ds = PixelDataset(
        sensor=file_sensor,
        pressure=pressure, water_vapor=water_vapor, ozone=ozone,
        surface=np.array(surface, dtype=np.int64),
        view_zenith=view_zenith, solar_zenith=solar_zenith,
        rel_azimuth=rel_azimuth,
        reflectance=np.ascontiguousarray(block[:, len(_ANCILLARY_COLUMNS):]),
        label=np.array(label, dtype=np.int64),
        cot_log10=np.array(cot, dtype=np.float64),
        pixel_id=np.array(pixel_id, dtype=np.int64),
    )
    ds.validate()  # non-finite values and cot_log10 out of range fail here
    return ds


def read_csv_file(path: str, parse: Callable):
    """``parse(reader, path)`` on a ``csv.reader`` over ``path``; a missing
    file, non-UTF-8 bytes or a ``csv`` module error (a field over its size
    limit) raises :class:`DataError` naming the file, and the line if known."""
    try:
        f = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    try:
        with f:
            reader = csv.reader(f)
            return parse(reader, path)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def _load_rows(path: str, sensor: SensorConfig | None) -> PixelDataset:
    """Row-by-row loader: the reference parse and the source of every error."""
    return read_csv_file(path, lambda reader, path: _parse_rows(reader, path, sensor))


def _parse_rows(reader, path: str, sensor: SensorConfig | None) -> PixelDataset:
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    file_sensor = _check_header(header, path, sensor)
    band_cols = header[len(_FIXED_LEAD):-2]

    ncols = len(header)
    rows = {name: [] for name in ("pixel_id", "pressure", "water_vapor",
                                  "ozone", "surface", "view_zenith",
                                  "solar_zenith", "rel_azimuth", "label",
                                  "cot_log10")}
    refl_rows: list[list[float]] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != ncols:
            raise DataError(
                f"line {line_no}: expected {ncols} fields, got {len(row)}")
        try:
            pixel_id = int(row[0])
        except ValueError:
            raise DataError(
                f"line {line_no}: pixel_id is not an integer: {row[0]!r}") from None
        if not -2**63 <= pixel_id < 2**63:
            raise DataError(
                f"{path}: line {line_no}: pixel_id does not fit in int64: {row[0]!r}")
        rows["pixel_id"].append(pixel_id)
        rows["pressure"].append(_parse_float(row[1], line_no, header[1]))
        rows["water_vapor"].append(_parse_float(row[2], line_no, header[2]))
        rows["ozone"].append(_parse_float(row[3], line_no, header[3]))
        if row[4] not in _SURFACE_TO_CODE:
            raise DataError(
                f"line {line_no}: surface_type {row[4]!r} not one of "
                f"{list(SURFACE_TYPES)}")
        rows["surface"].append(_SURFACE_TO_CODE[row[4]])
        rows["view_zenith"].append(_parse_float(row[5], line_no, header[5]))
        rows["solar_zenith"].append(_parse_float(row[6], line_no, header[6]))
        rows["rel_azimuth"].append(_parse_float(row[7], line_no, header[7]))
        refl_rows.append([_parse_float(row[8 + j], line_no, band_cols[j])
                          for j in range(len(band_cols))])
        label_text = row[-2]
        if label_text not in _NAME_TO_LABEL:
            raise DataError(
                f"line {line_no}: label {label_text!r} not one of "
                f"{sorted(_NAME_TO_LABEL)}")
        label = _NAME_TO_LABEL[label_text]
        rows["label"].append(label)
        cot_text = row[-1]
        if label_text == "clear":
            if cot_text != "":
                raise DataError(
                    f"line {line_no}: clear pixel must have empty cot_log10, "
                    f"got {cot_text!r}")
            rows["cot_log10"].append(math.nan)
        else:
            if cot_text == "":
                raise DataError(
                    f"line {line_no}: cloudy pixel is missing cot_log10")
            rows["cot_log10"].append(_parse_float(cot_text, line_no, "cot_log10"))

    if not refl_rows:
        raise DataError(f"{path}: no data rows")
    ds = PixelDataset(
        sensor=file_sensor,
        pressure=np.asarray(rows["pressure"]),
        water_vapor=np.asarray(rows["water_vapor"]),
        ozone=np.asarray(rows["ozone"]),
        surface=np.asarray(rows["surface"], dtype=np.int64),
        view_zenith=np.asarray(rows["view_zenith"]),
        solar_zenith=np.asarray(rows["solar_zenith"]),
        rel_azimuth=np.asarray(rows["rel_azimuth"]),
        reflectance=np.asarray(refl_rows, dtype=np.float64),
        label=np.asarray(rows["label"], dtype=np.int64),
        cot_log10=np.asarray(rows["cot_log10"], dtype=np.float64),
        pixel_id=np.asarray(rows["pixel_id"], dtype=np.int64),
    )
    ds.validate()
    return ds
