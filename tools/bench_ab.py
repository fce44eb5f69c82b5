"""Alternating A/B runs of ``bench/run.py`` on two checkouts, summarized.

    python3 tools/bench_ab.py --base ../parent --change . \\
        --workloads scene-infer,abi-ablate --seeds 9201-9210 --out BENCH.json

For each workload and seed the two checkouts run ``bench/run.py --trace 0``
one after the other in fresh processes, the base first on even pair indices
and the change first on odd ones, so that drift in the machine's speed does
not favour one side. Each run uses its own checkout's ``bench/`` and
``src/``. The output file holds, per workload and end-to-end metric of
``BENCHMARK.json``, each side's values, median and quartiles, the pairs the
change won (ties win for neither side), the metric's bound, whether a gain
is shown (the change wins at least nine tenths of the pairs and the medians
differ by more than the base's interquartile range) and whether the change's
median stays inside the bound; and both checkouts' git SHAs, ``nproc``, the
BLAS thread count, the seeds and the run length. It is rewritten after
every pair, so an interrupted session keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``9201-9210`` or ``9201,9205``: the seeds, one per pair."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", required=True, type=Path, help="parent checkout")
    p.add_argument("--change", required=True, type=Path, help="changed checkout")
    p.add_argument("--workloads", required=True,
                   help="comma-separated workload names")
    p.add_argument("--seeds", required=True, type=parse_seeds,
                   help="one seed per pair: 9201-9210 or 9201,9205")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--out", required=True, type=Path)
    return p.parse_args(argv)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: its result object and its ``machine`` record."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    machine = next(json.loads(line.split(" ", 1)[1]) for line in lines
                   if line.startswith("machine "))
    return {"result": json.loads(lines[-1]), "machine": machine}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: both sides' quartiles, the change's wins and the verdicts."""
    summary = {}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        base = [p["base"]["result"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        b, c = quartiles(base), quartiles(change)
        gain = c["median"] - b["median"] if higher else b["median"] - c["median"]
        summary[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "bound": spec["bound"], "base": b, "change": c,
            "wins": wins, "pairs": len(pairs),
            "change_frac": gain / b["median"] if b["median"] else None,
            "gain_shown": wins >= 0.9 * len(pairs)
            and gain > b["q3"] - b["q1"],
            "within_bound": gain >= -spec["bound"] * abs(b["median"]),
        }
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(getattr(args, side), workload, seed,
                                       args.seconds)
            pairs.append(pair)
            for side in ("base", "change"):
                machine = pair[side]["machine"]
                report[f"{side}_sha"] = machine["git_sha"]
                report["nproc"] = machine["nproc"]
                report["blas"] = machine["blas"]
                report["blas_threads"] = machine["blas_threads"]
                report["blas_threads_live"] = machine["blas_threads_live"]
            report["workloads"][workload] = {
                "failed": {side: [p[side]["result"]["failed"] for p in pairs]
                           for side in ("base", "change")},
                "first": [p["first"] for p in pairs],
                "metrics": summarize(pairs, metrics),
            }
            tmp = args.out.with_suffix(".tmp")
            tmp.write_text(json.dumps(report, indent=1) + "\n")
            os.replace(tmp, args.out)
            print(f"{workload} pair {i + 1}/{len(args.seeds)} seed {seed} done",
                  file=sys.stderr, flush=True)
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: base {m['base']['median']:.6g} "
                  f"[{m['base']['q1']:.6g}, {m['base']['q3']:.6g}] change "
                  f"{m['change']['median']:.6g} [{m['change']['q1']:.6g}, "
                  f"{m['change']['q3']:.6g}] wins {m['wins']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
