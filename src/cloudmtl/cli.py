"""Command-line interface: gen-data, train, ablate, kfold, select.

Every command runs at one BLAS thread, whatever the shell sets, so it is
deterministic given its flags; artifacts carry no timestamps.  Exit codes:
0 success, 2 configuration/data/usage error, 1 runtime or numeric failure.

Flags shared by the training-style commands may also be supplied through
``--config experiment.json`` holding any of the keys ``architecture``,
``train``, and ``split`` (the same sub-documents the commands write next to
their artifacts).  Each such flag sets one ``<section>.<field>``, its
argparse dest, which ``--help`` shows as its metavar.  Explicit flags
override file values, which override the built-in defaults. Every command
that reads ``--config`` checks all three sections, though ``kfold``
partitions by ``--k`` and uses no field of the split plan.
"""

from __future__ import annotations

import argparse
import os
import sys

from .atomic import write_text
from .data import SplitPlan, generate_dataset, get_sensor, load_csv, save_csv
from .engine import TrainConfig, dumps_deterministic
from .errors import CloudMtlError, ConfigError, DataError, read_json
from .models import COMPLEXITY_ORDER, VARIANTS, ArchitectureSpec
from .models.network import one_blas_thread
from .selection import compute_selection, read_stats_grid, render_table, write_fold_values_csv
from . import workflow

DEFAULT_COMPLEXITY = ",".join(COMPLEXITY_ORDER)


def _parse_name_list(text: str, what: str) -> list[str]:
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise ConfigError(f"empty {what} list: {text!r}")
    return names


def _int_tuple(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer list flag (an argparse ``type``)."""
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}") from None


def _section(args: argparse.Namespace, file_cfg: dict, key: str) -> dict:
    """``--config``'s ``key`` section, which must be a JSON object, with the
    flags given whose dest is ``<key>.<field>`` laid over it."""
    doc = file_cfg.get(key, {})
    if not isinstance(doc, dict):
        raise ConfigError(f"{key} must be an object, got {doc!r}")
    prefix = key + "."
    return {**doc, **{dest[len(prefix):]: v for dest, v in vars(args).items()
                      if dest.startswith(prefix) and v is not None}}


def _run_parents() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The flags of every run command (train, ablate, kfold), and the split
    flags of train and ablate, as argparse parent parsers."""
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--data", required=True, help="dataset CSV")
    run.add_argument("--sensor", help="expected sensor (cross-checked)")
    run.add_argument("--outdir", required=True)
    run.add_argument("--config", help="experiment config JSON")
    run.add_argument("--lr", dest="train.lr", type=float)
    run.add_argument("--epochs", dest="train.epochs", type=int)
    run.add_argument("--batch-size", dest="train.batch_size", type=int)
    run.add_argument("--clip-norm", dest="train.clip_norm", type=float)
    run.add_argument("--seed", dest="train.seed", type=int)
    run.add_argument("--encoder-widths", dest="architecture.encoder_widths",
                     type=_int_tuple,
                     help="comma-separated encoder widths (default 128,64,32)")
    run.add_argument("--head-hidden", dest="architecture.head_hidden",
                     type=_int_tuple,
                     help="comma-separated head hidden widths (default 16)")
    run.add_argument("--gating", dest="architecture.gating_mode",
                     choices=["soft", "hard"],
                     help="training-time gating mode (default soft)")
    run.add_argument("--lasso-lambda", dest="architecture.lasso_lambda",
                     type=float)
    run.add_argument("--reg-norm", dest="architecture.reg_norm",
                     choices=["sum", "mean"])
    run.add_argument("--threshold", dest="architecture.threshold", type=float,
                     help="cloud decision threshold (default 0.5)")
    run.add_argument("--mlp-hidden", dest="architecture.mlp_hidden", type=int,
                     help="hidden width for MLP-BASELINE (default 10)")
    split = argparse.ArgumentParser(add_help=False)
    split.add_argument("--train-frac", dest="split.train", type=float)
    split.add_argument("--val-frac", dest="split.val", type=float)
    split.add_argument("--test-frac", dest="split.test", type=float)
    split.add_argument("--split-seed", dest="split.seed", type=int)
    return run, split


def _run_inputs(args: argparse.Namespace):
    """Read ``--config`` and ``--data`` (cross-checked against ``--sensor``
    when given), then build the architecture of each requested variant, the
    training config and the split plan, in that order. A ConfigError in a
    setting is prefixed with the ``--config`` path when there is one."""
    file_cfg = read_json(args.config) if args.config is not None else {}
    sensor = get_sensor(args.sensor) if args.sensor else None
    ds = load_csv(args.data, sensor=sensor)
    variants = ([args.variant] if args.cmd == "train"
                else _parse_name_list(args.variants, "variant"))
    try:
        arch = _section(args, file_cfg, "architecture")
        specs = [ArchitectureSpec.from_dict(
            {**arch, "variant": v, "input_dim": ds.feature_dim})
            for v in variants]
        config = TrainConfig.from_dict(_section(args, file_cfg, "train"))
        plan = SplitPlan.from_dict(_section(args, file_cfg, "split"))
    except ConfigError as e:
        if args.config is None:
            raise
        raise ConfigError(f"{args.config}: {e}") from None
    return ds, specs, config, plan


def cmd_gen_data(args: argparse.Namespace) -> int:
    sensor = get_sensor(args.sensor)
    priors = tuple(args.priors)
    ds = generate_dataset(sensor, args.n, args.seed, priors=priors,
                          noise_sd=args.noise_sd)
    os.makedirs(os.path.dirname(args.out) or os.curdir, exist_ok=True)
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
    write_text(args.out + ".config.json", dumps_deterministic(sidecar) + "\n")
    counts = ds.class_counts()
    print(f"wrote {args.out}: n={len(ds)} bands={ds.n_bands} "
          f"features={ds.feature_dim}")
    print("labels: " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    ds, (spec,), config, plan = _run_inputs(args)
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
    ds, specs, config, plan = _run_inputs(args)
    results = workflow.run_ablation(ds, specs, config, plan,
                                    outdir=args.outdir, sensor_name=ds.sensor.name)
    for spec in specs:
        r = results[spec.variant]
        print(f"{spec.variant}: params={r.model.params.param_count()} "
              f"acc_bi={r.report.acc_bi:.4f} mse={_fmt_opt(r.report.mse_all)}")
    print(f"comparison table: {os.path.join(args.outdir, 'ablation.csv')}")
    return 0


def cmd_kfold(args: argparse.Namespace) -> int:
    ds, specs, config, _ = _run_inputs(args)
    label = args.dataset_label or ds.sensor.name
    result = workflow.run_kfold(ds, specs, config, args.k,
                                outdir=args.outdir, dataset_label=label)
    grid_path = os.path.join(args.outdir, "fold_values.csv")
    write_fold_values_csv(grid_path, result.fold_rows)
    print(f"{args.k}-fold run over {len(specs)} variants; "
          f"fold grid: {grid_path}")
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    order = _parse_name_list(args.complexity, "complexity")
    if len(set(order)) != len(order):
        raise ConfigError(f"--complexity names a model twice: {order}")
    grid = read_stats_grid(args.grid)
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
    try:
        scores = compute_selection(grid, order, weights=weights)
    except ConfigError as e:
        raise ConfigError(f"{args.grid}: {e}") from None
    scores_json = dumps_deterministic(scores.to_dict()) + "\n"
    table = render_table(scores, grid)
    os.makedirs(args.out, exist_ok=True)
    write_text(os.path.join(args.out, "scores.json"), scores_json)
    write_text(os.path.join(args.out, "table.txt"), table)
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

    run, split = _run_parents()
    p = sub.add_parser("train", parents=[run, split],
                       help="train one variant and evaluate on the test split")
    p.add_argument("--variant", default="MT-HCCAR", choices=sorted(VARIANTS))
    p.add_argument("--dump-scatter", action="store_true",
                   help="also write (true, predicted) thickness pairs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablate", parents=[run, split],
                       help="train several variants under one split")
    p.add_argument("--variants", default=",".join(VARIANTS))
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("kfold", parents=[run],
                       help="K-fold cross-validation producing a fold grid")
    p.add_argument("--variants", default=DEFAULT_COMPLEXITY)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dataset-label", default=None,
                   help="grid dataset label (default: sensor name)")
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
    args = build_parser().parse_args(argv)
    try:
        with one_blas_thread():
            return args.func(args)
    except (CloudMtlError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, (ConfigError, DataError)) else 1


if __name__ == "__main__":
    sys.exit(main())
