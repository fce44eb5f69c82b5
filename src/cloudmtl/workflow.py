"""The train, ablate and k-fold runs behind the command line.

Artifacts carry no timestamps, JSON keys are in a fixed order and floats
round-trip, so a repeated run writes byte-identical files. A training run's
``outdir`` gets ``config.json`` (the resolved settings), ``checkpoint.json``
(parameters and standardizer), ``history.csv`` (``history_<net>.csv`` per
SEQ stage), ``eval.json`` (the test report) and, on request,
``scatter.csv``.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .atomic import write_text
from .data import (
    PixelDataset,
    SplitPlan,
    Standardizer,
    kfold_indices,
    split_indices,
)
from .data.csvio import csv_text
from .engine import TrainConfig, dumps_deterministic, load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, StateError
from .metrics import METRIC_COLUMNS, EvalReport, evaluate_predictions
from .models import (
    ArchitectureSpec,
    LossTargets,
    Model,
    Predictions,
    TrainResult,
    build_model,
    history_csv,
    predictions_from_outputs,
    train_model,
)
from .models.network import forward_chunks
from .selection import write_fold_values_csv

CONFIG_NAME = "config.json"
CHECKPOINT_NAME = "checkpoint.json"
EVAL_NAME = "eval.json"
SCATTER_NAME = "scatter.csv"
FOLD_GRID_NAME = "fold_values.csv"

#: metrics extracted from each fold's report for model selection:
#: (metric name, lower is better, EvalReport attribute)
KFOLD_METRICS = (
    ("ACC_bi", False, "acc_bi"),
    ("AUPRC_w", False, "auprc_weighted"),
    ("MSE", True, "mse_all"),
    ("R2", False, "r2_all"),
)


def _check_feature_dim(ds: PixelDataset, spec: ArchitectureSpec) -> None:
    if ds.feature_dim != spec.input_dim:
        raise ConfigError(
            f"dataset provides {ds.feature_dim} features but the "
            f"architecture expects input_dim={spec.input_dim}")


def _check_specs(ds: PixelDataset, specs: list[ArchitectureSpec]) -> list[str]:
    """The variants of ``specs``: one or more, distinct, each fitting ``ds``."""
    names = [s.variant for s in specs]
    if not names or len(set(names)) != len(names):
        raise ConfigError(f"need one or more distinct variants, got {names}")
    for spec in specs:
        _check_feature_dim(ds, spec)
    return names


def evaluate_model(model: Model, standardizer: Standardizer,
                   ds: PixelDataset) -> tuple[Predictions, EvalReport]:
    """Predictions on ``ds`` and their report, standardized and inferred one
    ``INFER_CHUNK`` of pixels at a time: bitwise ``models.predict`` on the
    standardized whole-scene features, with no such matrix built."""
    _check_feature_dim(ds, model.spec)
    outputs = forward_chunks(lambda rows: model.forward(
        standardizer.transform(ds.subset(rows).feature_matrix())), len(ds))
    pred = predictions_from_outputs(outputs, model.spec)
    del outputs
    return pred, evaluate_predictions(pred, ds)


@dataclass
class RunResult:
    """Everything a single training run produced, in memory."""

    model: Model
    standardizer: Standardizer
    train_result: TrainResult
    report: EvalReport | None        # None when the test split is empty
    test_idx: np.ndarray


def resolved_config(spec: ArchitectureSpec, config: TrainConfig,
                    plan: SplitPlan, sensor_name: str,
                    data_source: dict | None = None) -> dict:
    """Assemble the provenance document written next to every artifact."""
    doc = {
        "sensor": sensor_name,
        "architecture": spec.to_dict(),
        "train": config.to_dict(),
        "split": asdict(plan),
    }
    if data_source is not None:
        doc["data"] = data_source
    return doc


def _history_filename(key: str) -> str:
    return "history.csv" if key == "model" else f"history_{key}.csv"


def scatter_csv(pred: Predictions, ds: PixelDataset) -> str:
    """(pixel, true, predicted) log10-thickness rows over truly cloudy pixels."""
    cloudy = ds.cloudy_mask()
    cols = (ds.pixel_id[cloudy].tolist(), ds.cot_log10[cloudy].tolist(),
            pred.cot_raw[cloudy].tolist())
    return csv_text([("pixel_id", "y_true_log10", "y_pred_log10"), *zip(*cols)])


def _fit_and_score(ds: PixelDataset, spec: ArchitectureSpec,
                   config: TrainConfig, train_idx: np.ndarray,
                   val_idx: np.ndarray, test_idx: np.ndarray
                   ) -> tuple[RunResult, Predictions | None]:
    """Standardize on the training pixels, build and train the model (with
    per-epoch validation when ``val_idx`` is not empty) and score the test
    pixels; the report and predictions are None when ``test_idx`` is empty."""
    train_ds = ds.subset(train_idx)
    standardizer = Standardizer.fit(train_ds.feature_matrix())

    def targets_for(sub: PixelDataset) -> LossTargets:
        feats = standardizer.transform(sub.feature_matrix())
        return LossTargets.from_dataset(sub, feats, spec.bins)

    model = build_model(spec, config.seed)
    val_targets = targets_for(ds.subset(val_idx)) if val_idx.size else None
    train_result = train_model(model, targets_for(train_ds), config, val_targets)
    pred = report = None
    if test_idx.size:
        pred, report = evaluate_model(model, standardizer, ds.subset(test_idx))
    return RunResult(model=model, standardizer=standardizer,
                     train_result=train_result, report=report,
                     test_idx=test_idx), pred


def run_training(ds: PixelDataset, spec: ArchitectureSpec, config: TrainConfig,
                 plan: SplitPlan, outdir: str | None = None,
                 dump_scatter: bool = False, sensor_name: str = "FILE",
                 data_source: dict | None = None) -> RunResult:
    """Split, standardize, train, evaluate, and optionally write artifacts."""
    ds.validate()
    _check_feature_dim(ds, spec)
    train_idx, val_idx, test_idx = split_indices(len(ds), plan)
    if train_idx.size == 0:
        raise DataError("split plan leaves the training set empty: train "
                        f"fraction {plan.train} of n={len(ds)} pixels")
    result, pred = _fit_and_score(ds, spec, config, train_idx, val_idx,
                                  test_idx)

    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        doc = resolved_config(spec, config, plan, sensor_name, data_source)
        write_text(os.path.join(outdir, CONFIG_NAME),
                    dumps_deterministic(doc) + "\n")
        save_checkpoint(
            os.path.join(outdir, CHECKPOINT_NAME), result.model.params,
            architecture=spec.to_dict(), config=config.to_dict(),
            extras={"standardizer": result.standardizer.to_dict(),
                    "sensor": sensor_name})
        for key, records in result.train_result.histories.items():
            write_text(os.path.join(outdir, _history_filename(key)),
                        history_csv(records))
        if result.report is not None:
            write_text(os.path.join(outdir, EVAL_NAME),
                        result.report.to_json() + "\n")
        if dump_scatter and pred is not None:
            write_text(os.path.join(outdir, SCATTER_NAME),
                        scatter_csv(pred, ds.subset(test_idx)))
    return result


def load_trained(path: str) -> tuple[Model, Standardizer, dict]:
    """The model, standardizer and whole document of a checkpoint; one whose
    parts do not fit together raises :class:`DataError` naming the path."""
    doc = load_checkpoint(path)
    extras = doc["extras"] if doc["extras"] is not None else {}
    try:
        if not isinstance(extras, dict):
            raise DataError("checkpoint extras must be an object")
        if "standardizer" not in extras:
            raise DataError("checkpoint lacks standardizer statistics")
        config = TrainConfig.from_dict(
            {} if doc["config"] is None else doc["config"])
        spec = ArchitectureSpec.from_dict(doc["architecture"])
        model = build_model(spec, config.seed)
        model.params.load_values(doc["values"])
        standardizer = Standardizer.from_dict(extras["standardizer"])
        if standardizer.mean.shape != (spec.input_dim,):
            raise DataError(f"standardizer holds {standardizer.mean.size} "
                            f"features, the architecture {spec.input_dim}")
    except (ConfigError, DataError, StateError) as e:
        raise DataError(f"{path}: {e}") from None
    return model, standardizer, doc


def _report_cell(report: EvalReport, attr: str, context: str) -> float:
    value = getattr(report, attr)
    if value is None:
        raise DataError(f"{context}: metric {attr} is undefined on this fold")
    return float(value)


def run_kfold(ds: PixelDataset, specs: list[ArchitectureSpec],
              config: TrainConfig, k: int, outdir: str | None = None,
              dataset_label: str = "DATA"
              ) -> list[tuple[str, str, str, bool, list[float]]]:
    """The fold grid's rows of each variant on one fold partition: fold
    ``i`` is scored after training on the other folds with seed
    ``config.seed + i``, with no validation pixels. ``outdir`` gets each
    ``eval_<variant>_fold<i>.json``, then the grid as ``FOLD_GRID_NAME``."""
    ds.validate()
    names = _check_specs(ds, specs)
    folds = kfold_indices(len(ds), k, config.seed)
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)

    values: dict[tuple[str, str], list[float]] = {
        (name, metric): [] for name in names for metric, _, _ in KFOLD_METRICS}
    all_idx = np.arange(len(ds))
    no_val = np.array([], dtype=np.int64)
    for i, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_idx, test_idx, assume_unique=True)
        fold_config = replace(config, seed=config.seed + i)
        for spec in specs:
            report = _fit_and_score(ds, spec, fold_config, train_idx, no_val,
                                    test_idx)[0].report
            context = f"fold {i} of {spec.variant}"
            for metric, _, attr in KFOLD_METRICS:
                values[(spec.variant, metric)].append(
                    _report_cell(report, attr, context))
            if outdir is not None:
                write_text(
                    os.path.join(outdir, f"eval_{spec.variant}_fold{i}.json"),
                    report.to_json() + "\n")

    fold_rows = [(name, dataset_label, metric, lower, values[(name, metric)])
                 for name in names
                 for metric, lower, _ in KFOLD_METRICS]
    if outdir is not None:
        write_fold_values_csv(os.path.join(outdir, FOLD_GRID_NAME), fold_rows)
    return fold_rows


ABLATION_COLUMNS = ("variant", "param_count") + METRIC_COLUMNS


def ablation_csv(rows: list[tuple[str, int, EvalReport]]) -> str:
    """One CSV row per variant: identity, size, and every report column."""
    return csv_text([ABLATION_COLUMNS, *(
        (variant, count, *(getattr(report, col) for col in METRIC_COLUMNS))
        for variant, count, report in rows)])


def run_ablation(ds: PixelDataset, specs: list[ArchitectureSpec],
                 config: TrainConfig, plan: SplitPlan,
                 outdir: str | None = None, sensor_name: str = "FILE"
                 ) -> dict[str, RunResult]:
    """Train each variant under one split and seed into
    ``<outdir>/<variant>/``, then write ``ablation.csv`` and ``manifest.json``
    to ``outdir``. A bad variant list or an empty test split raises before
    any training; a failing variant aborts the run, leaving the finished
    variants' artifacts."""
    _check_specs(ds, specs)
    if split_indices(len(ds), plan)[2].size == 0:
        raise DataError("ablation requires a non-empty test split: test "
                        f"fraction {plan.test} of n={len(ds)} pixels")
    results: dict[str, RunResult] = {}
    table_rows: list[tuple[str, int, EvalReport]] = []
    manifest: dict[str, dict] = {}
    for spec in specs:
        sub = os.path.join(outdir, spec.variant) if outdir is not None else None
        result = run_training(ds, spec, config, plan, outdir=sub,
                              sensor_name=sensor_name)
        results[spec.variant] = result
        count = result.model.params.param_count()
        table_rows.append((spec.variant, count, result.report))
        manifest[spec.variant] = {
            "param_count": count,
            "eval": result.report.to_dict(),
        }
    if outdir is not None:
        write_text(os.path.join(outdir, "ablation.csv"),
                    ablation_csv(table_rows))
        write_text(os.path.join(outdir, "manifest.json"),
                    dumps_deterministic(manifest) + "\n")
    return results
