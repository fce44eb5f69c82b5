"""Command-line interface: gen-data, train, ablate, kfold, select.

Every command is deterministic given its flags; artifacts carry no
timestamps.  Exit codes: 0 success, 2 configuration/data/usage error,
1 runtime or numeric failure.

Flags shared by the training-style commands may also be supplied through
``--config experiment.json`` holding any of the keys ``architecture``,
``train``, and ``split`` (the same sub-documents the commands write next to
their artifacts).  Explicit flags override file values, which override the
built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .atomic import atomic_write
from .data import SplitPlan, generate_dataset, get_sensor, load_csv, save_csv
from .engine import TrainConfig, dumps_deterministic
from .errors import CloudMtlError, ConfigError, DataError
from .models import COMPLEXITY_ORDER, VARIANTS, ArchitectureSpec
from .selection import compute_selection, read_stats_grid, render_table, write_fold_values_csv
from . import workflow

DEFAULT_COMPLEXITY = ",".join(COMPLEXITY_ORDER)


def _parse_name_list(text: str, what: str) -> list[str]:
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise ConfigError(f"empty {what} list: {text!r}")
    return names


def _parse_int_tuple(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e.reason})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def _add_arch_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--encoder-widths", default=None,
                   help="comma-separated encoder widths (default 128,64,32)")
    p.add_argument("--head-hidden", default=None,
                   help="comma-separated head hidden widths (default 16)")
    p.add_argument("--gating", default=None, choices=["soft", "hard"],
                   help="training-time gating mode (default soft)")
    p.add_argument("--lasso-lambda", type=float, default=None)
    p.add_argument("--reg-norm", default=None, choices=["sum", "mean"])
    p.add_argument("--threshold", type=float, default=None,
                   help="cloud decision threshold (default 0.5)")
    p.add_argument("--mlp-hidden", type=int, default=None,
                   help="hidden width for MLP-BASELINE (default 10)")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--clip-norm", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train-frac", type=float, default=None)
    p.add_argument("--val-frac", type=float, default=None)
    p.add_argument("--test-frac", type=float, default=None)
    p.add_argument("--split-seed", type=int, default=None)


def _spec_from_args(args: argparse.Namespace, variant: str, input_dim: int,
                    file_cfg: dict) -> ArchitectureSpec:
    doc = dict(file_cfg.get("architecture", {}))
    doc["variant"] = variant
    doc["input_dim"] = input_dim
    if args.encoder_widths is not None:
        doc["encoder_widths"] = _parse_int_tuple(args.encoder_widths, "--encoder-widths")
    if args.head_hidden is not None:
        doc["head_hidden"] = _parse_int_tuple(args.head_hidden, "--head-hidden")
    if args.gating is not None:
        doc["gating_mode"] = args.gating
    if args.lasso_lambda is not None:
        doc["lasso_lambda"] = args.lasso_lambda
    if args.reg_norm is not None:
        doc["reg_norm"] = args.reg_norm
    if args.threshold is not None:
        doc["threshold"] = args.threshold
    if args.mlp_hidden is not None:
        doc["mlp_hidden"] = args.mlp_hidden
    return ArchitectureSpec.from_dict(doc)


def _train_config_from_args(args: argparse.Namespace, file_cfg: dict) -> TrainConfig:
    doc = dict(file_cfg.get("train", {}))
    for key, val in (("lr", args.lr), ("epochs", args.epochs),
                     ("batch_size", args.batch_size),
                     ("clip_norm", args.clip_norm), ("seed", args.seed)):
        if val is not None:
            doc[key] = val
    return TrainConfig.from_dict(doc)


def _split_plan_from_args(args: argparse.Namespace, file_cfg: dict) -> SplitPlan:
    doc = dict(file_cfg.get("split", {}))
    for key, val in (("train", args.train_frac), ("val", args.val_frac),
                     ("test", args.test_frac), ("seed", args.split_seed)):
        if val is not None:
            doc[key] = val
    known = {"train", "val", "test", "seed"}
    extra = set(doc) - known
    if extra:
        raise ConfigError(f"unknown split fields: {sorted(extra)}")
    plan = SplitPlan(**doc)
    plan.validate()
    return plan


def _load_dataset(args: argparse.Namespace):
    """Load ``--data``, cross-checked against ``--sensor`` when given.

    The dataset's ``sensor.name`` is the registered sensor whose band
    centers the file's columns match exactly, or "FILE" when none does.
    """
    sensor = get_sensor(args.sensor) if getattr(args, "sensor", None) else None
    return load_csv(args.data, sensor=sensor)


def cmd_gen_data(args: argparse.Namespace) -> int:
    sensor = get_sensor(args.sensor)
    priors = tuple(args.priors)
    ds = generate_dataset(sensor, args.n, args.seed, priors=priors,
                          noise_sd=args.noise_sd)
    save_csv(ds, args.out)
    sidecar = {
        "sensor": sensor.name,
        "n": args.n,
        "seed": args.seed,
        "priors": list(priors),
        "noise_sd": args.noise_sd,
        "bands": len(sensor.band_centers_nm),
        "feature_dim": ds.feature_dim,
    }
    with atomic_write(args.out + ".config.json") as f:
        f.write(dumps_deterministic(sidecar) + "\n")
    counts = ds.class_counts()
    print(f"wrote {args.out}: n={len(ds)} bands={ds.n_bands} "
          f"features={ds.feature_dim}")
    print("labels: " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args.config)
    ds = _load_dataset(args)
    spec = _spec_from_args(args, args.variant, ds.feature_dim, file_cfg)
    config = _train_config_from_args(args, file_cfg)
    plan = _split_plan_from_args(args, file_cfg)
    result = workflow.run_training(
        ds, spec, config, plan, outdir=args.outdir,
        dump_scatter=args.dump_scatter, sensor_name=ds.sensor.name,
        data_source={"path": args.data})
    for key, records in result.train_result.histories.items():
        if not records:
            continue
        stage = "" if key == "model" else f" [{key}]"
        print(f"trained {spec.variant}{stage} for {config.epochs} epochs: "
              f"final train total={records[-1].total:.6g}")
    if result.report is not None:
        print(f"test: acc_bi={result.report.acc_bi:.4f} "
              f"mse={_fmt_opt(result.report.mse_all)} "
              f"r2={_fmt_opt(result.report.r2_all)}")
    print(f"artifacts in {args.outdir}")
    return 0


def _fmt_opt(v: float | None) -> str:
    return "n/a" if v is None else f"{v:.4f}"


def cmd_ablate(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args.config)
    ds = _load_dataset(args)
    variants = _parse_name_list(args.variants, "variant")
    specs = [_spec_from_args(args, v, ds.feature_dim, file_cfg) for v in variants]
    config = _train_config_from_args(args, file_cfg)
    plan = _split_plan_from_args(args, file_cfg)
    results = workflow.run_ablation(ds, specs, config, plan,
                                    outdir=args.outdir, sensor_name=ds.sensor.name)
    for v in variants:
        r = results[v]
        print(f"{v}: params={r.model.param_count()} "
              f"acc_bi={r.report.acc_bi:.4f} mse={_fmt_opt(r.report.mse_all)}")
    print(f"comparison table: {os.path.join(args.outdir, 'ablation.csv')}")
    return 0


def cmd_kfold(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args.config)
    ds = _load_dataset(args)
    label = args.dataset_label or ds.sensor.name
    variants = _parse_name_list(args.variants, "variant")
    specs = [_spec_from_args(args, v, ds.feature_dim, file_cfg) for v in variants]
    config = _train_config_from_args(args, file_cfg)
    result = workflow.run_kfold(ds, specs, config, args.k,
                                outdir=args.outdir, dataset_label=label)
    grid_path = os.path.join(args.outdir, "fold_values.csv")
    write_fold_values_csv(grid_path, result.fold_rows)
    print(f"{args.k}-fold run over {len(variants)} variants; "
          f"fold grid: {grid_path}")
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    grid = read_stats_grid(args.grid)
    order = _parse_name_list(args.complexity, "complexity")
    weights = None
    if args.weights:
        weights = {}
        for item in args.weights.split(","):
            if "=" not in item:
                raise ConfigError(
                    f"--weights expects metric=value pairs, got {item!r}")
            k, v = item.split("=", 1)
            try:
                weights[k.strip()] = float(v)
            except ValueError:
                raise ConfigError(f"weight for {k.strip()!r} is not numeric") from None
    scores = compute_selection(grid, order, weights=weights)
    table = render_table(scores, grid)
    os.makedirs(args.out, exist_ok=True)
    with atomic_write(os.path.join(args.out, "scores.json")) as f:
        f.write(dumps_deterministic(scores.to_dict()) + "\n")
    with atomic_write(os.path.join(args.out, "table.txt")) as f:
        f.write(table)
    print(table, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudmtl",
        description="Multi-task cloud masking, phase typing, and optical-"
                    "thickness retrieval on synthetic per-pixel data.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic pixel dataset CSV")
    p.add_argument("--sensor", required=True, help="sensor name (OCI, VIIRS, ABI)")
    p.add_argument("--n", type=int, required=True, help="number of pixels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--noise-sd", type=float, default=0.02)
    p.add_argument("--priors", type=float, nargs=3, default=(0.4, 0.3, 0.3),
                   metavar=("CLEAR", "LIQUID", "ICE"))
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one variant and evaluate on the test split")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--sensor", default=None, help="expected sensor (cross-checked)")
    p.add_argument("--variant", default="MT-HCCAR", choices=sorted(VARIANTS))
    p.add_argument("--outdir", required=True)
    p.add_argument("--config", default=None, help="experiment config JSON")
    p.add_argument("--dump-scatter", action="store_true",
                   help="also write (true, predicted) thickness pairs")
    _add_train_flags(p)
    _add_split_flags(p)
    _add_arch_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablate", help="train several variants under one split")
    p.add_argument("--data", required=True)
    p.add_argument("--sensor", default=None)
    p.add_argument("--variants", default=",".join(VARIANTS))
    p.add_argument("--outdir", required=True)
    p.add_argument("--config", default=None)
    _add_train_flags(p)
    _add_split_flags(p)
    _add_arch_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("kfold", help="K-fold cross-validation producing a fold grid")
    p.add_argument("--data", required=True)
    p.add_argument("--sensor", default=None)
    p.add_argument("--variants", default=DEFAULT_COMPLEXITY)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--dataset-label", default=None,
                   help="grid dataset label (default: sensor name)")
    p.add_argument("--config", default=None)
    _add_train_flags(p)
    _add_arch_flags(p)
    p.set_defaults(func=cmd_kfold)

    p = sub.add_parser("select", help="score a fold grid with the 1SE rule")
    p.add_argument("--grid", required=True,
                   help="stats CSV (mu/se summary or fold-values layout)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--complexity", default=DEFAULT_COMPLEXITY,
                   help="models from simplest to most complex")
    p.add_argument("--weights", default=None,
                   help="per-metric weights, e.g. ACC_bi=1,MSE=2")
    p.set_defaults(func=cmd_select)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CloudMtlError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
