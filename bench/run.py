"""Run one benchmark workload and print its metrics.

From the repository root:

    python3 bench/run.py --workload abi-ablate --seed 1 --seconds 30 --trace 0

The workload runs as a closed loop in this one process: set-up, then the
timed unit again and again while another unit of median length still fits
in ``--seconds`` (at least once), with output checks after each unit.
``--trace 0`` reports the end-to-end metrics, in seconds calibrated against
the speed probe of ``calib.py``; ``--trace 1`` runs set-up once, then an
untraced, a traced and another untraced unit, and reports the per-layer
metrics in plain wall seconds.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.  Nothing
is left behind: work files live in a temporary directory under
``.bench_work/`` that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: BLAS threads of the workload process, fixed so that two commits compare
#: at one setting; never above ``nproc`` on the machines this runs on
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5

#: fresh-interpreter imports timed for ``setup_s``; about 0.2 s each
IMPORT_REPEATS = 7

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "train_px_per_s": "1/s",
    "infer_px_per_s": "1/s", "peak_rss_mb": "MB",
}

#: per-layer metrics every workload's traced run reports
PER_LAYER = {
    "data.generate_s": "s", "data.save_csv_s": "s", "data.load_csv_s": "s",
    "data.csv_bytes": "bytes", "data.standardize_s": "s",
    "cli.gen_data_s": "s", "workflow.artifacts_s": "s",
    "models.batch_take_s": "s", "models.forward_s": "s", "models.loss_s": "s",
    "models.validate_s": "s", "models.step_ms_p50": "ms",
    "models.step_ms_p90": "ms", "models.step_count": "count",
    "models.step_phase_coverage": "ratio",
    "models.MT-HCCAR.train_px_per_s": "1/s",
    "engine.backward_s": "s", "engine.zero_grads_s": "s",
    "engine.optimizer_s": "s", "engine.graph_nodes_per_step": "count",
    "engine.grad_arrays_per_step": "count",
    "engine.useful_grad_ratio": "ratio",
    **{f"engine.op.{op}.{kind}": unit
       for op in ("dense", "reduce_sum", "absval", "softmax_rows", "relu",
                  "clamp", "reduce_mean", "mul", "add")
       for kind, unit in (("calls", "count"), ("s", "s"))},
    **{f"models.layer.{layer}.s": "s"
       for layer in ("encoder.0", "encoder.1", "encoder.2", "decoder.0",
                     "decoder.1", "decoder.2", "mask_head_out",
                     "phase_head_out", "attn")},
    "engine.infer_graph_bytes": "bytes", "engine.infer_peak_traced_mb": "MB",
    "models.predict_s": "s", "metrics.evaluate_s": "s",
    "engine.checkpoint_save_s": "s", "engine.checkpoint_load_s": "s",
    "engine.checkpoint_bytes": "bytes",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "quality.acc_bi_min": "ratio", "quality.r2_min": "ratio",
}

IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import numpy, cloudmtl.cli, cloudmtl.workflow\n"
    "print(time.perf_counter() - t)\n"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("abi-ablate", "oci-pipeline", "scene-infer"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="input sizes; smoke is for the benchmark's own test")
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def import_times(speed) -> list[tuple[float, float, float]]:
    """Import times of numpy and cloudmtl in fresh interpreters.

    Each is (seconds the child measured, start, end of the child in this
    process's clock), so that the probes around it can calibrate it.
    """
    times = []
    for _ in range(IMPORT_REPEATS):
        speed.probe()
        start = perf_counter()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                             env=child_env(), cwd=ROOT, capture_output=True,
                             text=True, timeout=60, check=True)
        times.append((float(out.stdout.strip()), start, perf_counter()))
    return times


def blas_facts() -> tuple[str, int | None]:
    """The BLAS numpy was built against, and its live thread count."""
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    name = f"{blas.get('name')} {blas.get('version')}"
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return name, int(fn())
    return name, None


def machine_facts(args) -> dict:
    import numpy as np

    git_sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        git_sha = out.stdout.strip() or None
    blas, live_threads = blas_facts()
    return {
        "git_sha": git_sha, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": BLAS_THREADS,
        "blas_threads_live": live_threads,
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
    }


def rate(calls, kind: str, seconds) -> float:
    """Pixels over ``seconds(start, end)`` summed over the calls of a kind."""
    picked = [c for c in calls if c.kind == kind]
    return (sum(c.pixels for c in picked)
            / sum(seconds(c.start, c.end) for c in picked))


def print_quality(calls) -> dict[str, float]:
    """Lowest quality per variant over every report; returns the overall lows."""
    evals = [c for c in calls if c.kind == "eval"]
    for variant in sorted({c.variant for c in evals}):
        mine = [c.result for c in evals if c.variant == variant]
        print(f"quality {variant} acc_bi_min={min(r.acc_bi for r in mine)} "
              f"r2_min={min(r.r2_all for r in mine)}")
    return {"acc_bi_min": min(c.result.acc_bi for c in evals),
            "r2_min": min(c.result.r2_all for c in evals)}


def run_untraced(wl, log, seconds: float) -> dict:
    from calib import Speedometer

    speed = Speedometer()
    parts = wl.probe_parts
    imports = import_times(speed)
    setups, setup_calls = [], []
    with speed.installed(), log.installed():
        for _ in range(SETUP_REPEATS):
            log.take()
            speed.probe()
            t0 = perf_counter()
            wl.setup()
            setups.append((t0, perf_counter()))
            setup_calls.append(log.take())
        wl.check_setup()
        wl.warm_up()
        units, unit_calls = [], []
        # stop before a unit that would likely overrun the budget
        while not units or (sum(speed.raw_seconds(*u) for u in units)
                            + statistics.median(speed.raw_seconds(*u) for u in units)
                            <= seconds):
            log.take()
            speed.probe()
            t0 = perf_counter()
            out = wl.unit()
            units.append((t0, perf_counter()))
            speed.probe()
            wl.check(out)
            del out
            unit_calls.append(log.take())
    speed.probe()
    for calls in setup_calls + unit_calls:
        wl.check_calls(calls)
    print_quality([c for calls in setup_calls + unit_calls for c in calls])
    print("speed " + speed.summary())
    print("raw_s import " + " ".join(f"{d:.4f}" for d, _, _ in imports)
          + " setup " + " ".join(f"{speed.raw_seconds(*u):.4f}" for u in setups)
          + " unit " + " ".join(f"{speed.raw_seconds(*u):.4f}" for u in units))
    train_calls = setup_calls if wl.trains_in_setup else unit_calls
    return {
        "setup_s": (statistics.median(d * speed.factor(a, b, parts)
                                      for d, a, b in imports)
                    + statistics.median(speed.seconds(*u, parts) for u in setups)),
        "wall_s": statistics.median(speed.seconds(*u, parts) for u in units),
        "train_px_per_s": statistics.median(
            rate(c, "train", speed.seconds) for c in train_calls),
        "infer_px_per_s": statistics.median(
            rate(c, "eval", lambda a, b: speed.seconds(a, b, ("python", "array")))
            for c in unit_calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, [speed.seconds(*u, parts) for u in units]


def run_traced(wl, log) -> dict:
    import tracing

    tracer = tracing.Tracer()
    calls = []
    with tracer.installed(), log.installed():
        wl.tracer = tracer
        log.take()
        wl.setup()
        calls += log.take()
        wl.check_calls(calls)
        wl.check_setup()
        wl.tracer = None

    def untraced_unit() -> float:
        with log.installed():
            t0 = perf_counter()
            baseline = wl.unit()
            seconds = perf_counter() - t0
            wl.check(baseline)
            log.take()
        return seconds

    with log.installed():
        wl.warm_up()
    # untraced units on both sides, so that drift does not pose as overhead
    untraced_s = untraced_unit()
    with tracer.installed(), log.installed():
        wl.tracer = tracer
        t0 = perf_counter()
        out = wl.unit()
        traced_s = perf_counter() - t0
        wl.check(out)
        unit_calls = log.take()
        wl.check_calls(unit_calls)
        calls += unit_calls
        wl.tracer = None
    untraced_s = (untraced_s + untraced_unit()) / 2
    for variant, same in tracing.check_fidelity(tracer):
        wl.checks.check(same, f"{variant}: traced loop trained other weights "
                              f"than models.train_model")
    tracer.values.update(tracing.inference_memory(*wl.inference_input(out)))
    tracer.values["trace.wall_s"] = (traced_s, "s")
    tracer.values["trace.untraced_wall_s"] = (untraced_s, "s")
    tracer.values["trace.overhead_s"] = (traced_s - untraced_s, "s")
    for name, value in print_quality(calls).items():
        tracer.values[f"quality.{name}"] = (value, "ratio")
    found = tracer.metrics()
    coverage = found["models.step_phase_coverage"][0]
    wl.checks.check(0.9 <= coverage <= 1.0,
                    f"step phases cover {coverage:.3f} of step time")
    for name, share in sorted(tracer.step_shares().items()):
        print(f"share_of_step {name} {share:.4f}")
    if "SEQ" in tracer.train_px:
        print("note: SEQ stages mask_net, phase_net, cot_net have no step-phase,"
              " op or layer times (their loss closures are private)")
    return found


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cloudmtl" / "__init__.py").is_file():
        print(f"error: no cloudmtl sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))

    import cloudmtl
    if Path(cloudmtl.__file__).resolve().parent != SRC / "cloudmtl":
        print(f"error: imported cloudmtl from {cloudmtl.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import PROFILES, WORKLOADS, CallLog, Checks

    print("machine " + json.dumps(machine_facts(args)))
    checks = Checks()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work")
    try:
        wl = WORKLOADS[args.workload](PROFILES[args.size], args.seed, workdir,
                                      checks)
        if args.trace:
            found = run_traced(wl, CallLog())
            wanted = PER_LAYER
        else:
            found, units = run_untraced(wl, CallLog(), args.seconds)
            found = {k: (v, END_TO_END[k]) for k, v in found.items()}
            wanted = END_TO_END
            print("unit_s " + " ".join(f"{u:.4f}" for u in units))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass                      # another run still uses it

    for name, (value, unit) in found.items():
        print(f"metric {name} {value:.6g} {unit}")
    failed = len(checks.failures)
    print(f"checks attempted={checks.attempted} failed={failed} "
          f"failed_frac={failed / max(checks.attempted, 1):.6g}")
    for what in checks.failures:
        print(f"CHECK FAILED: {what}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": found[name][0], "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
