"""Byte-mutated input files through the command line.

Whatever bytes a run is handed, it either succeeds (exit 0) or refuses the
input: exit 2, one ``error:`` line on stderr naming the file, and no output
directory. The inputs are a 40-pixel ABI CSV (``train``), the reference
summary grid (``select``) and a valid ``--config`` JSON, each damaged by one
to three mutations: flip a byte, truncate, insert a quote, a CR, a BOM,
``nan`` or ``1e999``, drop a span, or duplicate a line. Examples are
derandomized, so every run tries the same inputs. Property-based testing
after Claessen and Hughes, "QuickCheck" (ICFP 2000).
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmtl.cli import main
from cloudmtl.selection import write_summary_csv

from reference_grid import reference_grid

INSERTS = (b'"', b"\r", b"\xef\xbb\xbf", b"nan", b"1e999")

#: a position as a fraction of the current length
_AT = st.floats(0.0, 1.0)

MUTATION = st.one_of(
    st.tuples(st.just("flip"), _AT, st.integers(1, 255)),
    st.tuples(st.just("truncate"), _AT),
    st.tuples(st.just("insert"), _AT, st.sampled_from(INSERTS)),
    st.tuples(st.just("drop"), _AT, st.integers(1, 64)),
    st.tuples(st.just("duplicate-line"), _AT),
)

FUZZ = settings(derandomize=True, max_examples=100, deadline=None)


def mutate(data: bytes, mutations) -> bytes:
    """``data`` with each mutation applied in turn."""
    for kind, at, *arg in mutations:
        i = min(int(at * len(data)), len(data))
        if kind == "flip" and data:
            i = min(i, len(data) - 1)
            data = data[:i] + bytes([data[i] ^ arg[0]]) + data[i + 1:]
        elif kind == "truncate":
            data = data[:i]
        elif kind == "insert":
            data = data[:i] + arg[0] + data[i:]
        elif kind == "drop":
            data = data[:i] + data[i + arg[0]:]
        elif kind == "duplicate-line":
            lines = data.splitlines(keepends=True)
            if lines:
                k = min(int(at * len(lines)), len(lines) - 1)
                data = b"".join(lines[:k + 1] + lines[k:])
    return data


def test_mutations_do_what_they_say():
    data = b"ab\ncd\n"
    assert mutate(data, [("flip", 0.0, 3)]) == b"bb\ncd\n"
    assert mutate(data, [("truncate", 0.5)]) == b"ab\n"
    assert mutate(data, [("insert", 1.0, b"nan")]) == b"ab\ncd\nnan"
    assert mutate(data, [("drop", 0.5, 64)]) == b"ab\n"
    assert mutate(data, [("duplicate-line", 1.0)]) == b"ab\ncd\ncd\n"
    assert mutate(b"", [("flip", 0.5, 1), ("duplicate-line", 0.0)]) == b""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The path of each unmutated input: a valid 40-pixel CSV, the
    reference grid and a valid ``--config``."""
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = {name: str(tmp / name)
             for name in ("abi.csv", "grid.csv", "cfg.json")}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--sensor", "ABI", "--n", "40",
                     "--seed", "3", "--out", paths["abi.csv"]]) == 0
    write_summary_csv(paths["grid.csv"], reference_grid())
    config = {"architecture": {"mlp_hidden": 6},
              "train": {"lr": 0.001, "epochs": 1, "batch_size": 16,
                        "seed": 2}}
    with open(paths["cfg.json"], "w", encoding="utf-8") as f:
        json.dump(config, f, indent=1)
    return paths


def exits_0_or_names(source: str, mutations, argv) -> None:
    """Run ``argv(path, out)`` on a mutated copy at ``path`` of the file
    ``source``: it exits 0, or 2 with one error line naming ``path`` and
    no ``out``."""
    with tempfile.TemporaryDirectory() as tmp, open(source, "rb") as f:
        path = os.path.join(tmp, os.path.basename(source))
        out = os.path.join(tmp, "out")
        with open(path, "wb") as g:
            g.write(mutate(f.read(), mutations))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            rc = main(argv(path, out))
        err = stderr.getvalue()
        if rc == 0:
            assert os.path.isdir(out)
            return
        assert rc == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert path in err, err
        assert not os.path.exists(out)


TRAIN = ["train", "--variant", "MLP-BASELINE", "--epochs", "1"]
MUTATIONS = st.lists(MUTATION, min_size=1, max_size=3)


@FUZZ
@given(MUTATIONS)
def test_mutated_pixel_csv(inputs, mutations):
    exits_0_or_names(inputs["abi.csv"], mutations, lambda path, out: [
        *TRAIN, "--data", path, "--outdir", out])


@FUZZ
@given(MUTATIONS)
def test_mutated_grid(inputs, mutations):
    exits_0_or_names(inputs["grid.csv"], mutations, lambda path, out: [
        "select", "--grid", path, "--out", out])


@FUZZ
@given(MUTATIONS)
def test_mutated_config(inputs, mutations):
    exits_0_or_names(inputs["cfg.json"], mutations, lambda path, out: [
        *TRAIN, "--data", inputs["abi.csv"], "--config", path,
        "--outdir", out])
