"""Atomic writes: a failure midway keeps the earlier file and leaves no temp file."""

import os

import numpy as np
import pytest

from cloudmtl.atomic import atomic_write
from cloudmtl.data import csvio, generate_dataset, get_sensor, save_csv
from cloudmtl.engine import ParamStore, checkpoint, save_checkpoint


class Boom(Exception):
    pass


def test_success_replaces_file_and_leaves_only_it(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old\n")
    with atomic_write(str(path)) as f:
        f.write("new\n")
    assert path.read_bytes() == b"new\n"
    assert os.listdir(tmp_path) == ["a.txt"]


def test_failure_midway_keeps_earlier_file(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old\n")
    with pytest.raises(Boom):
        with atomic_write(str(path)) as f:
            f.write("partial")
            f.flush()
            raise Boom
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["a.txt"]


def test_failure_midway_creates_no_file(tmp_path):
    with pytest.raises(Boom):
        with atomic_write(str(tmp_path / "a.txt")) as f:
            f.write("partial")
            raise Boom
    assert os.listdir(tmp_path) == []


def test_save_csv_failing_in_a_later_chunk_keeps_earlier_csv(tmp_path, monkeypatch):
    path = str(tmp_path / "oci.csv")
    save_csv(generate_dataset(get_sensor("OCI"), 10, seed=1), path)
    before = open(path, "rb").read()

    real = csvio._format_rows
    calls = []

    def fail_second_chunk(ds, rows):
        calls.append(rows)
        if len(calls) == 2:
            raise Boom
        return real(ds, rows)

    monkeypatch.setattr(csvio, "_format_rows", fail_second_chunk)
    with pytest.raises(Boom):
        save_csv(generate_dataset(get_sensor("OCI"), 200, seed=2), path)
    assert len(calls) == 2
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["oci.csv"]


def test_save_checkpoint_failing_to_write_keeps_earlier_checkpoint(
        tmp_path, monkeypatch):
    params = ParamStore()
    params.add("w", np.arange(6.0).reshape(2, 3))
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, params)
    before = open(path, "rb").read()
    # a lone surrogate cannot be encoded, so the write into the temp file fails
    monkeypatch.setattr(checkpoint, "dumps_deterministic",
                        lambda doc: "{\n" + "\udc80")
    with pytest.raises(UnicodeEncodeError):
        save_checkpoint(path, params)
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["ckpt.json"]
