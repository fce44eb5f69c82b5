"""Print digests of trained weights, histories and CLI artifacts.

A bitwise before/after check for changes that must not alter what the
program computes. It trains every variant on one fixed recipe and prints,
per variant and ``clip_norm`` setting, the SHA-256 of the trained weights,
of its ``history*.csv`` text and of every ``Predictions`` field that
``models.predict`` gives on the validation pixels; then it runs a 2-epoch
``cloudmtl ablate`` of all six variants and a 2-fold, 2-epoch
``cloudmtl kfold`` of all six variants and a ``cloudmtl train`` whose
settings come from a ``--config`` file and flags, and prints for each one
SHA-256 over every file the run writes, plus, for the kfold run, the SHA-256
of the ``FoldStats`` that ``read_stats_grid`` reads from its
``fold_values.csv``.
Last, for each of ABI, OCI and VIIRS it prints the SHA-256 of the bytes
``cloudmtl gen-data`` writes and of every column ``load_csv`` reads back
from them, and of every column ``load_csv`` reads from the ABI file with
every cell quoted (which only the row-by-row parser takes); for each
variant, built untrained at OCI input width, the SHA-256 of every
``Predictions`` field ``models.predict`` gives on 5,000 random rows (three
inference chunks), and the SHA-256 of the ``EvalReport`` JSON
``workflow.evaluate_model`` gives on 5,000 generated OCI pixels, whose
near-tied untrained scores put the attention of every chunk and the
pooled PR curve inside the check. It ends with the weights and histories
of MT-HCCAR and SEQ trained on 1,000 ABI pixels and validated on 5,000
(three inference chunks), which puts the chunked validation forward and
SEQ's stage subset inside the check.
Run it on two trees and diff the output:

    PYTHONPATH=src python3 tools/digest.py > after.txt
    PYTHONPATH=/path/to/other/src python3 tools/digest.py > before.txt

Only the public ``cloudmtl`` API is used, so the script runs unchanged
against any tree that keeps that API. It takes about ten seconds on a
2-core machine.

Recipe: ABI, 4,000 pixels, data seed 100. The standardizer is fit on the
first 3,000 pixels, training uses those and validation the last 1,000;
3 epochs, batch 64, lr 3e-3, seed 1, with ``clip_norm`` None and 0.5.
The 1,000 predicted pixels fit in one inference chunk.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from cloudmtl import cli, workflow
from cloudmtl.data import Standardizer, generate_dataset, get_sensor, load_csv
from cloudmtl.engine import TrainConfig
from cloudmtl.models import (
    VARIANTS, ArchitectureSpec, LossTargets, build_model, history_csv,
    predict, train_model,
)
from cloudmtl.selection import read_stats_grid

N_PIXELS, DATA_SEED, N_TRAIN = 4000, 100, 3000
CLIP_NORMS = (None, 0.5)


def weights_sha256(params) -> str:
    """SHA-256 over every parameter's name, shape and float64 bytes."""
    h = hashlib.sha256()
    for name, t in params.items():
        h.update(name.encode())
        h.update(repr(t.value.shape).encode())
        h.update(np.ascontiguousarray(t.value).tobytes())
    return h.hexdigest()


def histories_sha256(histories) -> str:
    h = hashlib.sha256()
    for key, records in histories.items():
        h.update(key.encode())
        h.update(history_csv(records).encode())
    return h.hexdigest()


def fields_sha256(obj) -> str:
    """SHA-256 over every dataclass field's name, dtype, shape and bytes.

    A field that is not an array (a dataset's ``sensor``) enters by repr.
    """
    h = hashlib.sha256()
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if not isinstance(v, np.ndarray):
            h.update(f"{f.name} {v!r}".encode())
            continue
        v = np.ascontiguousarray(v)
        h.update(f"{f.name} {v.dtype} {v.shape}".encode())
        h.update(v.tobytes())
    return h.hexdigest()


def tree_sha256(root: str) -> str:
    """SHA-256 over the relative path and bytes of every file under root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def training_digests() -> list[str]:
    ds = generate_dataset(get_sensor("ABI"), N_PIXELS, seed=DATA_SEED)
    train_ds = ds.subset(np.arange(N_TRAIN))
    val_ds = ds.subset(np.arange(N_TRAIN, N_PIXELS))
    std = Standardizer.fit(train_ds.feature_matrix())
    lines = []
    for variant in sorted(VARIANTS):
        spec = ArchitectureSpec(variant=variant, input_dim=ds.feature_dim)
        train_t, val_t = (
            LossTargets.from_dataset(sub, std.transform(sub.feature_matrix()),
                                     spec.bins)
            for sub in (train_ds, val_ds))
        for clip in CLIP_NORMS:
            config = TrainConfig(lr=3e-3, epochs=3, batch_size=64, seed=1,
                                 clip_norm=clip)
            model = build_model(spec, config.seed)
            result = train_model(model, train_t, config, val_t)
            lines.append(f"{variant} clip_norm={clip} "
                         f"weights={weights_sha256(model.params)} "
                         f"history={histories_sha256(result.histories)} "
                         f"predictions={fields_sha256(predict(model, val_t.x))}")
    return lines


#: the CLI runs digested on the recipe's data: (subcommand, extra flags)
CLI_RUNS = (
    ("ablate", ["--epochs", "2", "--batch-size", "64", "--lr", "3e-3",
                "--seed", "1"]),
    ("kfold", ["--k", "2", "--epochs", "2", "--batch-size", "64",
               "--lr", "3e-3", "--seed", "1",
               "--variants", ",".join(VARIANTS)]),
)


def _run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"cloudmtl {argv[0]} exited with {code}")


#: the ``--config`` document of the digested ``cloudmtl train`` run; it sets
#: fields of all three sections, and ``CONFIG_FLAGS`` override some of them
CONFIG_DOC = {
    "architecture": {"encoder_widths": [32, 16], "head_hidden": [8],
                     "gating_mode": "hard", "lasso_lambda": 1e-4,
                     "reg_norm": "mean", "threshold": 0.4,
                     "bins": [-1.5, 0.5, 1.5, 2.5]},
    "train": {"lr": 3e-3, "epochs": 3, "batch_size": 64, "clip_norm": 0.5,
              "seed": 5},
    "split": {"train": 0.6, "val": 0.2, "test": 0.2, "seed": 3},
}
CONFIG_FLAGS = ["--variant", "MT-HCCAR", "--threshold", "0.45",
                "--epochs", "2", "--seed", "1", "--split-seed", "7"]


def cli_digests() -> list[str]:
    """One SHA-256 over every file each of ``CLI_RUNS`` and the ``--config``
    train run write, and one over the fold statistics read back from the
    kfold run's grid. The train run records its ``--data`` path, so it runs
    inside the temporary directory with relative paths."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "abi.csv")
        _run_cli(["gen-data", "--sensor", "ABI", "--n", str(N_PIXELS),
                  "--seed", str(DATA_SEED), "--out", data])
        for command, flags in CLI_RUNS:
            outdir = os.path.join(tmp, command)
            _run_cli([command, "--data", data, "--outdir", outdir, *flags])
            lines.append(f"{command} artifacts={tree_sha256(outdir)}")
        with open(os.path.join(tmp, "config.json"), "w") as f:
            json.dump(CONFIG_DOC, f)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            _run_cli(["train", "--data", "abi.csv", "--outdir", "train",
                      "--config", "config.json", *CONFIG_FLAGS])
        finally:
            os.chdir(cwd)
        lines.append("train --config artifacts="
                     f"{tree_sha256(os.path.join(tmp, 'train'))}")
        grid = read_stats_grid(os.path.join(tmp, "kfold", "fold_values.csv"))
        h = hashlib.sha256()
        for stats in grid:
            h.update(fields_sha256(stats).encode())
        lines.append(f"kfold read_stats_grid n={len(grid)} "
                     f"fold_stats={h.hexdigest()}")
    return lines


#: the CSVs digested: (sensor, pixels, data seed)
CSV_RUNS = (("ABI", N_PIXELS, DATA_SEED), ("OCI", 500, DATA_SEED),
            ("VIIRS", 1000, DATA_SEED))


def csv_digests() -> list[str]:
    """SHA-256 of each ``CSV_RUNS`` file ``gen-data`` writes and of every
    column ``load_csv`` reads back, and for ABI also from a copy with every
    cell quoted, which sends ``load_csv`` down its row-by-row path."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for sensor, n, seed in CSV_RUNS:
            path = os.path.join(tmp, f"{sensor}.csv")
            _run_cli(["gen-data", "--sensor", sensor, "--n", str(n),
                      "--seed", str(seed), "--out", path])
            with open(path, "rb") as f:
                csv_sha = hashlib.sha256(f.read()).hexdigest()
            lines.append(f"gen-data {sensor} n={n} csv={csv_sha} "
                         f"load_csv={fields_sha256(load_csv(path))}")
            if sensor == "ABI":
                quoted = os.path.join(tmp, "quoted.csv")
                with open(path, encoding="utf-8") as src, \
                        open(quoted, "w", encoding="utf-8") as dst:
                    for line in src:
                        cells = line.rstrip("\n").split(",")
                        dst.write(",".join(f'"{c}"' for c in cells) + "\n")
                lines.append(f"quoted {sensor} n={n} "
                             f"load_csv={fields_sha256(load_csv(quoted))}")
    return lines


#: rows of the OCI-width predict digest: two full inference chunks and a part
N_INFER_ROWS = 5000


def infer_digests() -> list[str]:
    """SHA-256 of ``predict`` per variant on random OCI-width rows."""
    dim = get_sensor("OCI").feature_dim
    X = np.random.default_rng(DATA_SEED).standard_normal((N_INFER_ROWS, dim))
    lines = []
    for variant in sorted(VARIANTS):
        model = build_model(ArchitectureSpec(variant=variant, input_dim=dim),
                            seed=1)
        lines.append(f"predict OCI {variant} n={N_INFER_ROWS} "
                     f"predictions={fields_sha256(predict(model, X))}")
    return lines


def report_digests() -> list[str]:
    """SHA-256 of ``evaluate_model``'s report per untrained variant on
    ``N_INFER_ROWS`` generated OCI pixels."""
    ds = generate_dataset(get_sensor("OCI"), N_INFER_ROWS, seed=DATA_SEED)
    std = Standardizer.fit(ds.feature_matrix())
    lines = []
    for variant in sorted(VARIANTS):
        model = build_model(
            ArchitectureSpec(variant=variant, input_dim=ds.feature_dim), seed=1)
        _, report = workflow.evaluate_model(model, std, ds)
        report_sha = hashlib.sha256(report.to_json().encode()).hexdigest()
        lines.append(f"evaluate OCI {variant} n={N_INFER_ROWS} "
                     f"report={report_sha}")
    return lines


#: the chunked-validation recipe: ABI pixels, training pixels, variants;
#: the other 5,000 pixels validate in three inference chunks
N_BIG_VAL_PIXELS, N_BIG_VAL_TRAIN = 6000, 1000
BIG_VAL_VARIANTS = ("MT-HCCAR", "SEQ")


def validation_digests() -> list[str]:
    """SHA-256 of the weights and histories of ``BIG_VAL_VARIANTS`` trained
    with a validation split of several inference chunks, so the chunked
    validation forward and SEQ's stage subset are inside the check."""
    ds = generate_dataset(get_sensor("ABI"), N_BIG_VAL_PIXELS, seed=DATA_SEED)
    std = Standardizer.fit(ds.subset(np.arange(N_BIG_VAL_TRAIN)).feature_matrix())
    lines = []
    for variant in BIG_VAL_VARIANTS:
        spec = ArchitectureSpec(variant=variant, input_dim=ds.feature_dim)
        targets = LossTargets.from_dataset(
            ds, std.transform(ds.feature_matrix()), spec.bins)
        train_t = targets.take(np.arange(N_BIG_VAL_TRAIN))
        val_t = targets.take(np.arange(N_BIG_VAL_TRAIN, N_BIG_VAL_PIXELS))
        config = TrainConfig(lr=3e-3, epochs=2, batch_size=64, seed=1)
        model = build_model(spec, config.seed)
        result = train_model(model, train_t, config, val_t)
        lines.append(f"{variant} validation n={len(val_t)} "
                     f"weights={weights_sha256(model.params)} "
                     f"history={histories_sha256(result.histories)}")
    return lines


def main() -> None:
    for line in training_digests():
        print(line, flush=True)
    for line in cli_digests():
        print(line, flush=True)
    for line in csv_digests():
        print(line, flush=True)
    for line in infer_digests():
        print(line, flush=True)
    for line in report_digests():
        print(line, flush=True)
    for line in validation_digests():
        print(line, flush=True)


if __name__ == "__main__":
    main()
