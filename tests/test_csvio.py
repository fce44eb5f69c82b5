"""Dataset CSV round trips and malformed-file diagnostics; the fast load
path against the row-by-row validator; save bytes and memory; the cell
rule of the artifact writers."""

import dataclasses
import math
import os
import re
import tempfile
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmtl.data import (
    LABEL_CLEAR, LABEL_NAMES, SURFACE_TYPES, csvio, generate_dataset, get_sensor,
    load_csv, save_csv,
)
from cloudmtl import models, workflow
from cloudmtl.cli import main
from cloudmtl.errors import DataError
from cloudmtl.metrics import EvalReport
from cloudmtl.selection import read_stats_grid, write_fold_values_csv


@pytest.fixture()
def toy(tmp_path):
    ds = generate_dataset(get_sensor("ABI"), 120, seed=4)
    path = str(tmp_path / "toy.csv")
    save_csv(ds, path)
    return ds, path


def test_round_trip_bitwise(toy):
    ds, path = toy
    back = load_csv(path)
    assert np.array_equal(back.reflectance, ds.reflectance)
    assert np.array_equal(back.cot_log10, ds.cot_log10, equal_nan=True)
    assert np.array_equal(back.label, ds.label)
    assert np.array_equal(back.surface, ds.surface)
    assert np.array_equal(back.pixel_id, ds.pixel_id)


def test_save_is_deterministic(toy, tmp_path):
    ds, path = toy
    second = str(tmp_path / "again.csv")
    save_csv(ds, second)
    assert open(path, "rb").read() == open(second, "rb").read()


def test_sensor_cross_check(toy):
    ds, path = toy
    load_csv(path, sensor=get_sensor("ABI"))  # matches: fine
    with pytest.raises(DataError):
        load_csv(path, sensor=get_sensor("VIIRS"))


def test_header_schema(toy):
    _, path = toy
    header = open(path).readline().strip().split(",")
    assert header[0] == "pixel_id"
    assert header[-2] == "label"
    assert header[-1] == "cot_log10"
    assert sum(c.startswith("refl_") for c in header) == 6


def test_clear_pixel_with_cot_rejected(toy, tmp_path):
    _, path = toy
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    li, ci = header.index("label"), header.index("cot_log10")
    # find a clear row and force a thickness value onto it
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if cells[li] == "clear":
            cells[ci] = "1.0"
            lines[i - 1] = ",".join(cells)
            break
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=str(i)):
        load_csv(str(bad))


def test_cloudy_pixel_missing_cot_rejected(toy, tmp_path):
    _, path = toy
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    li, ci = header.index("label"), header.index("cot_log10")
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if cells[li] in ("liquid", "ice"):
            cells[ci] = ""
            lines[i - 1] = ",".join(cells)
            break
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=str(i)):
        load_csv(str(bad))


def test_non_numeric_cell_names_line(toy, tmp_path):
    _, path = toy
    lines = open(path).read().splitlines()
    cells = lines[1].split(",")
    cells[1] = "not-a-number"
    lines[1] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="2"):
        load_csv(str(bad))


def test_band_count_mismatch_rejected(tmp_path):
    """An ABI-shaped file must not load as VIIRS."""
    ds = generate_dataset(get_sensor("ABI"), 10, seed=0)
    path = str(tmp_path / "abi.csv")
    save_csv(ds, path)
    with pytest.raises(DataError):
        load_csv(path, sensor=get_sensor("VIIRS"))


BAD_BANDS = [["refl_600", "refl_500"], ["refl_500", "refl_500"], ["refl_nan"],
             ["refl_inf", "refl_500"]]


@pytest.mark.parametrize("quoted", [False, True], ids=["fast", "row-by-row"])
@pytest.mark.parametrize("bands", BAD_BANDS, ids=map(",".join, BAD_BANDS))
def test_band_centers_must_be_finite_and_increasing(tmp_path, bands, quoted,
                                                    capsys):
    # the ABI file's six band columns cut to len(bands) and renamed
    lines = _lines()
    first = lines[0].split(",").index("refl_471")
    for i, line in enumerate(lines):
        cells = line.split(",")
        cells[first:first + 6] = bands if i == 0 else cells[first:first + len(bands)]
        lines[i] = ",".join(cells)
    if quoted:
        _quoted_cells(lines)
    path = _write(tmp_path, "\n".join(lines) + "\n")
    kind, message = assert_same_outcome(path)
    assert kind == "DataError" and message.startswith(f"{path}: ")
    assert "band centers are not finite and strictly increasing" in message
    assert main(["train", "--data", path, "--outdir", str(tmp_path / "o")]) == 2


def test_missing_file_reported():
    with pytest.raises(DataError):
        load_csv("/nonexistent/nowhere.csv")


def test_non_utf8_file_names_path(tmp_path):
    bad = tmp_path / "bin.csv"
    bad.write_bytes(b"\xff\xfe")
    with pytest.raises(DataError, match="UTF-8") as info:
        load_csv(str(bad))
    assert str(bad) in str(info.value)


# ------------------------------------------------- fast load path equivalence
#
# ``load_csv`` parses with a streamed pass plus one ``np.loadtxt`` and hands
# any file it cannot vouch for to ``csvio._load_rows``, the row-by-row
# validator. On every file both must give the same arrays or the same error.

def _outcome(load, path):
    """('ok', sensor, columns), or the error's class name and message.

    Every malformed file raises ``DataError``, a ``pixel_id`` beyond int64
    and a field over the csv module's size limit included."""
    try:
        ds = load(path)
    except DataError as exc:
        return (type(exc).__name__, str(exc))
    cols = tuple((f.name, str(v.dtype), v.shape, v.tobytes())
                 for f in dataclasses.fields(ds) if f.name != "sensor"
                 for v in [getattr(ds, f.name)])
    return ("ok", ds.sensor, cols)


def assert_same_outcome(path):
    fast = _outcome(load_csv, path)
    rows = _outcome(lambda p: csvio._load_rows(p, None), path)
    assert fast == rows
    return fast


def _lines(sensor="ABI", n=12, seed=21):
    """The lines of a freshly saved file, without their newlines."""
    ds = generate_dataset(get_sensor(sensor), n, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        save_csv(ds, path)
        with open(path, encoding="utf-8") as f:
            return f.read().split("\n")[:-1]


def _write(tmp_path, text, name="case.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def _first_row(lines, labels):
    for i, line in enumerate(lines[1:], start=1):
        if line.split(",")[-2] in labels:
            return i
    raise AssertionError(f"no row labelled {labels}")


@pytest.mark.parametrize("sensor", ["ABI", "OCI", "VIIRS"])
def test_fast_path_takes_valid_files(tmp_path, sensor):
    lines = _lines(sensor, n=40)
    assert any(line.endswith(",clear,") for line in lines)  # NaN cot_log10
    path = _write(tmp_path, "\n".join(lines) + "\n")
    assert csvio._load_fast(path, None) is not None
    assert assert_same_outcome(path)[0] == "ok"


@pytest.mark.parametrize("newline", ["\r\n", "\r", "\n\n", "\r\n\r\n"])
def test_line_endings_and_blank_lines_take_fast_path(tmp_path, newline):
    lines = _lines()
    path = _write(tmp_path, newline.join(lines) + newline)
    assert csvio._load_fast(path, None) is not None
    assert assert_same_outcome(path)[0] == "ok"


def _set_cell(lines, row, col, text):
    cells = lines[row].split(",")
    cells[col] = text
    lines[row] = ",".join(cells)


def _case_whitespace_line(lines):
    lines.insert(3, " ")


def _case_extra_field(lines):
    cells = lines[3].split(",")
    cells.insert(9, "0.25")
    lines[3] = ",".join(cells)


def _case_missing_field(lines):
    cells = lines[3].split(",")
    del cells[9]
    lines[3] = ",".join(cells)


def _case_bad_label(lines):
    _set_cell(lines, 2, -2, "fog")


def _case_bad_surface(lines):
    _set_cell(lines, 2, 4, "lava")


def _case_clear_with_cot(lines):
    _set_cell(lines, _first_row(lines, {"clear"}), -1, "1.0")


def _case_cloudy_without_cot(lines):
    _set_cell(lines, _first_row(lines, {"liquid", "ice"}), -1, "")


def _cell_case(col, text, labels=("clear", "liquid", "ice")):
    """Set cell ``col`` of the first row with one of ``labels`` to ``text``."""
    def case(lines):
        _set_cell(lines, _first_row(lines, set(labels)), col, text)
    case.__name__ = f"cell{col}={text[:12]!r}"
    return case


def _quoted_cells(lines):
    cells = lines[2].split(",")
    cells[1] = f'"{cells[1]}"'
    cells[-2] = f'"{cells[-2]}"'
    lines[2] = ",".join(cells)


LINE_CASES = [
    (_case_whitespace_line, "DataError"),
    (_case_extra_field, "DataError"),
    (_case_missing_field, "DataError"),
    (_case_bad_label, "DataError"),
    (_case_bad_surface, "DataError"),
    (_case_clear_with_cot, "DataError"),
    (_case_cloudy_without_cot, "DataError"),
    (_quoted_cells, "ok"),
    (_cell_case(2, "nan"), "DataError"),
    (_cell_case(9, "inf"), "DataError"),
    (_cell_case(9, "-Infinity"), "DataError"),
    (_cell_case(9, "1e500"), "DataError"),
    (_cell_case(1, "1_0"), "ok"),
    (_cell_case(9, "١٢"), "ok"),      # Arabic-Indic digits 12
    (_cell_case(9, " 0.5 "), "ok"),
    (_cell_case(0, "+5"), "ok"),
    (_cell_case(0, "5.0"), "DataError"),
    (_cell_case(0, "99999999999999999999"), "DataError"),
    (_cell_case(3, ""), "DataError"),
    (_cell_case(3, "1,5"), "DataError"),
    (_cell_case(-1, "nan", labels=("liquid", "ice")), "DataError"),
    (_cell_case(-1, "1e500", labels=("liquid", "ice")), "DataError"),
    (_cell_case(-1, " 1.5", labels=("liquid", "ice")), "ok"),
    (_cell_case(9, "0." + "0" * 140_000 + "5"), "DataError"),
]


@pytest.mark.parametrize("case,expected", LINE_CASES,
                         ids=[c.__name__.lstrip("_") for c, _ in LINE_CASES])
def test_load_matches_row_by_row_path(tmp_path, case, expected):
    lines = _lines()
    case(lines)
    path = _write(tmp_path, "\n".join(lines) + "\n")
    assert assert_same_outcome(path)[0] == expected


def test_error_names_line_after_blank_lines_and_crlf(tmp_path):
    lines = _lines()
    _case_bad_label(lines)
    # header, blank, row 1, blank, row 2: the bad second row is line 5
    path = _write(tmp_path, "\r\n\r\n".join(lines) + "\r\n")
    with pytest.raises(DataError, match=rf"^{re.escape(path)}: line 5: label 'fog'"):
        load_csv(path)
    assert_same_outcome(path)


def test_error_names_physical_line_after_a_quoted_cell_spanning_two(tmp_path):
    lines = _lines()
    # float() accepts a trailing newline, so row 1 is valid but takes two lines
    _set_cell(lines, 1, 9, '"' + lines[1].split(",")[9] + '\n"')
    _case_bad_label(lines)
    path = _write(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(DataError, match=rf"^{re.escape(path)}: line 4: label 'fog'"):
        load_csv(path)
    assert_same_outcome(path)


# Cell texts that float(), int() and np.loadtxt may read differently.
_TOKENS = ["0.5", "-0.0", "1e-05", "1e16", "+5", " 1.5", "1.5 ", "1_0",
           "nan", "inf", "-nan", "1e500", "", " ", "0x10", "1d5", ".5", "5.",
           "١", " 1.5", "#1", '"0.5"', "1\x0c", "clear", "ocean",
           "liquid", "ice"]


@settings(max_examples=150, deadline=None)
@given(edits=st.lists(
    st.tuples(st.integers(1, 12), st.integers(0, 15),
              st.one_of(st.sampled_from(_TOKENS),
                        st.text(alphabet="0123456789.+-e_ ,\"\r\nnaif١",
                                max_size=6))),
    min_size=1, max_size=3),
    newline=st.sampled_from(["\n", "\r\n", "\n\n"]))
def test_load_matches_row_by_row_path_on_fuzzed_cells(edits, newline):
    lines = _lines()
    for row, col, text in edits:
        _set_cell(lines, row, col, text)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.csv")
        with open(path, "wb") as f:
            f.write((newline.join(lines) + newline).encode("utf-8"))
        assert_same_outcome(path)


# ------------------------------------------- record framing shared by readers
#
# The pixel CSV reader and the statistics-grid reader frame records with one
# loop: the header, blank records, line numbers and field counts.

#: (reader, its header line, one valid data line)
READERS = {
    "pixel": (load_csv, *_lines(n=1)),
    "grid": (read_stats_grid, "model,dataset,metric,direction,mu,se",
             "m,d,ACC,higher,0.9,0.01"),
}


def _drop_last_field(line):
    return line.rsplit(",", 1)[0]


def _spanning(line):
    """``line`` with its first cell quoted and ending in a newline."""
    first, rest = line.split(",", 1)
    return f'"{first}\n",{rest}'


#: (case, the file's lines, the file's line ending, error after "<path>: "
#: or None when the file reads like its LF-only form)
FRAMING_CASES = [
    ("empty_file", lambda h, r: [], "\n", "empty file"),
    ("header_only", lambda h, r: [h], "\n", "no data rows"),
    ("header_and_blank_lines", lambda h, r: [h, "", ""], "\r\n", "no data rows"),
    ("blank_lines_crlf", lambda h, r: [h, "", r, "", r], "\r\n", None),
    ("wrong_count_after_blank_lines_crlf",
     lambda h, r: [h, "", r, "", _drop_last_field(r)], "\r\n",
     "line 5: expected {n} fields, got {m}"),
    ("extra_field", lambda h, r: [h, r, r + ",1"], "\n",
     "line 3: expected {n} fields, got {p}"),
    ("spanning_record", lambda h, r: [h, _spanning(_drop_last_field(r))], "\n",
     "line 3: expected {n} fields, got {m}"),
    ("spanning_record_then_wrong_count",
     lambda h, r: [h, _spanning(r), _drop_last_field(r)], "\n",
     "line 4: expected {n} fields, got {m}"),
]


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("case,make,newline,error", FRAMING_CASES,
                         ids=[c[0] for c in FRAMING_CASES])
def test_record_framing_on_both_readers(tmp_path, reader, case, make, newline,
                                        error):
    read, header, row = READERS[reader]
    lines = make(header, row)
    path = _write(tmp_path, "".join(line + newline for line in lines))
    if error is None:
        lf = _write(tmp_path, "".join(line + "\n" for line in lines if line),
                    name="lf.csv")
        assert _framed(read, path) == _framed(read, lf)
        return
    n = header.count(",") + 1
    error = error.format(n=n, m=n - 1, p=n + 1)
    with pytest.raises(DataError, match=rf"^{re.escape(path)}: {error}$"):
        read(path)


def _framed(read, path):
    """What ``read`` gives for ``path``, with a dataset's columns as bytes."""
    out = read(path)
    if isinstance(out, list):
        return out
    return [(f.name, getattr(out, f.name).tobytes())
            for f in dataclasses.fields(out) if f.name != "sensor"]


# ------------------------------------------------------- save bytes and memory

def _reference_save(dataset, path):
    """The per-row writer ``save_csv`` replaced: one ``repr(float(x))`` per cell."""
    header = (csvio._FIXED_LEAD + dataset.sensor.band_columns()
              + csvio._FIXED_TAIL)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for i in range(len(dataset)):
            row = [str(int(dataset.pixel_id[i]))]
            row += [repr(float(c[i])) for c in (dataset.pressure,
                                                dataset.water_vapor,
                                                dataset.ozone)]
            row.append(SURFACE_TYPES[dataset.surface[i]])
            row += [repr(float(c[i])) for c in (dataset.view_zenith,
                                                dataset.solar_zenith,
                                                dataset.rel_azimuth)]
            row.extend(repr(float(v)) for v in dataset.reflectance[i])
            row.append(LABEL_NAMES[int(dataset.label[i])])
            c = dataset.cot_log10[i]
            row.append("" if math.isnan(c) else repr(float(c)))
            f.write(",".join(row) + "\n")


# repr prints these in exponent form, or with a sign on zero
_ODD_FLOATS = [1e-05, 1e16, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1/3]


@pytest.mark.parametrize("sensor,n", [("ABI", 2500), ("OCI", 150), ("VIIRS", 700)])
def test_save_bytes_match_per_row_writer(tmp_path, sensor, n):
    """Several chunks, the last one partial, and values repr prints oddly."""
    ds = generate_dataset(get_sensor(sensor), n, seed=8)
    k = len(_ODD_FLOATS)
    ds.reflectance[:k, 0] = _ODD_FLOATS
    ds.reflectance[-k:, -1] = _ODD_FLOATS
    ds.pressure[:k] = _ODD_FLOATS
    ds.pixel_id[:] = ds.pixel_id * 1_000_003 - 7
    cloudy = np.flatnonzero(ds.label != LABEL_CLEAR)[:3]
    ds.cot_log10[cloudy] = [1e-05, -0.0, 2.5]
    assert np.isnan(ds.cot_log10).any()
    new, ref = str(tmp_path / "new.csv"), str(tmp_path / "ref.csv")
    save_csv(ds, new)
    _reference_save(ds, ref)
    assert open(new, "rb").read() == open(ref, "rb").read()
    assert assert_same_outcome(new)[0] == "ok"


def _traced(fn, *args):
    """(result, peak bytes, bytes still held) that tracemalloc saw above the
    start of one call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
        return out, peak - base, held - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sensor,n", [("OCI", 2000), ("ABI", 100_000)])
def test_save_memory_does_not_grow_with_pixels(tmp_path, sensor, n):
    ds = generate_dataset(get_sensor(sensor), n, seed=9)
    _, peak, _ = _traced(save_csv, ds, str(tmp_path / "big.csv"))
    assert peak < 2e6


@pytest.mark.parametrize("sensor,n", [("OCI", 2000), ("ABI", 20_000)])
def test_load_memory_within_3x_of_arrays(tmp_path, sensor, n):
    path = str(tmp_path / "big.csv")
    save_csv(generate_dataset(get_sensor(sensor), n, seed=9), path)
    ds, peak, held = _traced(load_csv, path)
    arrays = sum(getattr(ds, f.name).nbytes for f in dataclasses.fields(ds)
                 if f.name != "sensor")
    assert peak < 3 * arrays
    assert held < 1.2 * arrays  # no column keeps the parse buffer alive


def test_artifact_writers_share_one_cell_rule(tmp_path):
    """None is an empty cell, a str is as is, an integer goes through
    ``str`` and any other number through ``repr(float(v))``; each former
    writer's row keeps its bytes, integer loss means and fold values
    included."""
    assert csvio.csv_text([("a", None, 3, np.int64(4), 0.1, np.float64(2.0)),
                           ()]) == "a,,3,4,0.1,2.0\n\n"

    history = models.history_csv([models.EpochRecord(2, 1, 0.5, 0.0, 0.0,
                                                     0.0, 1e-5, 1.5)])
    assert history.splitlines()[1] == "2,1.0,0.5,0.0,0.0,0.0,1e-05,1.5,"

    report = EvalReport(**{f.name: None for f in dataclasses.fields(EvalReport)}
                        | {"acc_bi": 0.75, "fmg_eligible_liquid": 3,
                           "fmg_eligible_ice": 0})
    row = workflow.ablation_csv([("MT-CR", 12, report)]).splitlines()[1]
    assert row == "MT-CR,12,0.75" + "," * 13 + ",3,0"

    ds = generate_dataset(get_sensor("ABI"), 40, seed=2)
    i = int(np.flatnonzero(ds.cloudy_mask())[0])
    pred = types.SimpleNamespace(cot_raw=np.linspace(-1.0, 2.0, len(ds)))
    row = workflow.scatter_csv(pred, ds).splitlines()[1]
    assert row == (f"{ds.pixel_id[i]},{float(ds.cot_log10[i])!r},"
                   f"{float(pred.cot_raw[i])!r}")

    path = str(tmp_path / "folds.csv")
    write_fold_values_csv(path, [("m", "D", "MSE", True, [1, 0.25])])
    with open(path, "rb") as f:
        assert f.read().splitlines()[1] == b"m,D,MSE,lower,1.0,0.25"
