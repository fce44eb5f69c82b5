"""CSV persistence for pixel datasets.

Schema (one header row, LF line endings, UTF-8):

    pixel_id,<ANCILLARY_FEATURES>,surface_type,<GEOMETRY_FEATURES>,
    refl_<center>...,label,cot_log10

The ancillary and geometry cells hold the dataset's ``FLOAT_COLUMNS`` in
order; ``surface_type`` and ``label`` are symbolic, and ``cot_log10`` is
empty exactly when the label is clear. Floats are written with ``repr``, so
a save/load cycle is bitwise. ``save_csv`` streams about ``_CHUNK_CELLS``
cells at a time and replaces the file atomically.

``load_csv`` parses the numeric columns with one ``np.loadtxt`` when it can
vouch for the file; any quote, unknown symbol, bad value or field count
sends the file to the row-by-row reader, which returns the same arrays and
raises each :class:`~cloudmtl.errors.DataError` naming its line (header =
line 1).
"""

from __future__ import annotations

import csv
import math
import numbers
from array import array
from typing import Callable

import numpy as np

from ..atomic import atomic_write
from ..errors import ConfigError, DataError, reading
from .dataset import FLOAT_COLUMNS, PixelDataset, LABEL_CLEAR, LABEL_NAMES
from .sensors import (
    ANCILLARY_FEATURES, GEOMETRY_FEATURES, SURFACE_TYPES, SensorConfig,
    get_sensor, sensor_names, validate_sensor,
)

_FIXED_LEAD = ["pixel_id", *ANCILLARY_FEATURES, "surface_type", *GEOMETRY_FEATURES]
_FIXED_TAIL = ["label", "cot_log10"]
#: file column of ``surface_type``; the float columns lie on both sides of it
_SURFACE = _FIXED_LEAD.index("surface_type")

_NAME_TO_LABEL = {v: k for k, v in LABEL_NAMES.items()}
_SURFACE_TO_CODE = {name: i for i, name in enumerate(SURFACE_TYPES)}

#: cells formatted per written chunk: 67 rows of OCI, 1,024 of ABI
_CHUNK_CELLS = 16384


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
            *(map(repr, floats(getattr(ds, name))) for name in FLOAT_COLUMNS)]
    cols.insert(_SURFACE, map(SURFACE_TYPES.__getitem__, ds.surface[rows].tolist()))
    cols.extend(map(repr, band) for band in
                np.asarray(ds.reflectance[rows], dtype=np.float64).T.tolist())
    cols.append(map(LABEL_NAMES.__getitem__, map(int, ds.label[rows].tolist())))
    cols.append("" if math.isnan(c) else repr(c) for c in floats(ds.cot_log10))
    return "\n".join(map(",".join, zip(*cols))) + "\n"


def csv_text(rows) -> str:
    """The CSV text of ``rows``, one LF-ended line each. A cell is empty for
    None; a str is written as is, an integer by ``str`` and any other
    number by ``repr(float(v))``."""
    return "".join(",".join(map(_cell, row)) + "\n" for row in rows)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return str(v) if isinstance(v, numbers.Integral) else repr(float(v))


def _parse_float(text: str, at: str, column: str) -> float:
    """``float(text)``; ``at`` (``"<path>: line N"``) starts any error."""
    try:
        v = float(text)
    except ValueError:
        raise DataError(f"{at}: column {column!r} is not numeric: {text!r}") from None
    if not math.isfinite(v):
        raise DataError(f"{at}: column {column!r} is not finite: {text!r}")
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
    try:
        validate_sensor(file_sensor)
    except ConfigError as e:
        raise DataError(f"{path}: {e}") from None
    if sensor is not None:
        if file_sensor.band_centers_nm != sensor.band_centers_nm:
            raise DataError(
                f"{path}: band columns ({len(band_cols)} bands) do not match "
                f"sensor {sensor.name} ({sensor.band_count} bands)")
        file_sensor = sensor
    return file_sensor


def _dataset(sensor: SensorConfig, pixel_id, surface, label, cot,
             block: np.ndarray) -> PixelDataset:
    """The validated dataset of these columns; each ``block`` row holds one
    pixel's ``FLOAT_COLUMNS`` followed by its reflectances."""
    floats = {name: block[:, j].copy() for j, name in enumerate(FLOAT_COLUMNS)}
    ds = PixelDataset(
        sensor=sensor, surface=np.array(surface, dtype=np.int64),
        reflectance=np.ascontiguousarray(block[:, len(FLOAT_COLUMNS):]),
        label=np.array(label, dtype=np.int64),
        cot_log10=np.array(cot, dtype=np.float64),
        pixel_id=np.array(pixel_id, dtype=np.int64), **floats)
    ds.validate()  # non-finite values and cot_log10 out of range fail here
    return ds


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
    with reading(path) as f:
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
            # np.loadtxt with usecols accepts rows with extra or missing fields
            if line.count(",") != commas or '"' in line or len(line) > max_line:
                return None
            lead = line.split(",", _SURFACE + 1)
            tail = line.rsplit(",", 2)
            pixel_id.append(int(lead[0]))
            surface.append(_SURFACE_TO_CODE[lead[_SURFACE]])
            code = _NAME_TO_LABEL[tail[1]]
            label.append(code)
            if (code == LABEL_CLEAR) != (tail[2] == ""):
                return None
            cot.append(math.nan if code == LABEL_CLEAR else float(tail[2]))
    if not label:
        return None
    usecols = [*range(1, _SURFACE), *range(_SURFACE + 1, commas - 1)]
    block = np.loadtxt(path, delimiter=",", skiprows=1, usecols=usecols,
                       comments=None, quotechar=None, encoding="utf-8", ndmin=2)
    return _dataset(file_sensor, pixel_id, surface, label, cot, block)


def read_csv_file(path: str, parse: Callable):
    """``parse(header, records, path)`` on the CSV file ``path``, where
    ``records`` yields ``(at, fields)`` per non-blank record, ``at`` being
    ``"<path>: line N"``. A wrong field count, no records, an empty file, a
    ``csv`` error or any failure of :func:`~cloudmtl.errors.reading` raise
    :class:`DataError` naming the file, and the line if known."""
    with reading(path) as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            return parse(header, _records(reader, path, len(header)), path)
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def _records(reader, path: str, width: int):
    seen = False
    for row in reader:
        if not row:
            continue
        at = f"{path}: line {reader.line_num}"
        if len(row) != width:
            raise DataError(f"{at}: expected {width} fields, got {len(row)}")
        seen = True
        yield at, row
    if not seen:
        raise DataError(f"{path}: no data rows")


def _load_rows(path: str, sensor: SensorConfig | None) -> PixelDataset:
    """Row-by-row loader: the reference parse and the source of every error."""
    return read_csv_file(path, lambda header, records, path:
                         _parse_rows(header, records, path, sensor))


def _parse_rows(header: list[str], records, path: str,
                sensor: SensorConfig | None) -> PixelDataset:
    file_sensor = _check_header(header, path, sensor)
    pixel_id, surface, label, cot, block = [], [], [], [], []
    for at, row in records:
        try:
            pid = int(row[0])
        except ValueError:
            raise DataError(
                f"{at}: pixel_id is not an integer: {row[0]!r}") from None
        if not -2**63 <= pid < 2**63:
            raise DataError(
                f"{at}: pixel_id does not fit in int64: {row[0]!r}")
        floats = [_parse_float(row[k], at, header[k]) for k in range(1, _SURFACE)]
        if row[_SURFACE] not in _SURFACE_TO_CODE:
            raise DataError(
                f"{at}: surface_type {row[_SURFACE]!r} not one of "
                f"{list(SURFACE_TYPES)}")
        floats += [_parse_float(row[k], at, header[k])
                   for k in range(_SURFACE + 1, len(row) - 2)]
        label_text, cot_text = row[-2:]
        if label_text not in _NAME_TO_LABEL:
            raise DataError(
                f"{at}: label {label_text!r} not one of "
                f"{sorted(_NAME_TO_LABEL)}")
        if label_text == "clear" and cot_text != "":
            raise DataError(
                f"{at}: clear pixel must have empty cot_log10, got {cot_text!r}")
        if label_text != "clear" and cot_text == "":
            raise DataError(f"{at}: cloudy pixel is missing cot_log10")
        pixel_id.append(pid)
        surface.append(_SURFACE_TO_CODE[row[_SURFACE]])
        block.append(floats)
        label.append(_NAME_TO_LABEL[label_text])
        cot.append(math.nan if label_text == "clear"
                   else _parse_float(cot_text, at, "cot_log10"))
    return _dataset(file_sensor, pixel_id, surface, label, cot,
                    np.array(block, dtype=np.float64))
