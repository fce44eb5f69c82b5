"""The benchmark's three workloads, their inputs and their output checks.

Each workload has a set-up, a timed unit that the runner repeats, and checks
that run after each unit, outside the timed region.  All inputs derive from
the workload seed; the program sees only the generated data and the command
lines below.

* ``abi-ablate``: ``workflow.run_ablation`` over all six variants on
  in-memory ABI pixels.  Bound by the engine and the training loop.
* ``oci-pipeline``: ``cloudmtl gen-data`` and ``cloudmtl train`` on the
  233-band OCI sensor, then the CSV is read back and the model reloaded with
  ``workflow.load_trained`` scores it.  Bound by CSV write and read; also
  writes and reads a checkpoint.
* ``scene-infer``: a model trained in set-up scores a whole ABI scene with
  ``workflow.evaluate_model``.  Forward only: graph memory and metrics.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import shutil
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field, fields
from time import perf_counter

import numpy as np

from cloudmtl import cli, data, models, workflow
from cloudmtl.engine import TrainConfig

VARIANTS = ("SEQ", "MT-CR", "MT-HCR", "MT-HCCR", "MT-HCCAR", "MLP-BASELINE")
TRAIN_SEED = 1
LR = 3e-3
BATCH = 64


@dataclass(frozen=True)
class Profile:
    """Input sizes and quality floors; ``full`` is the benchmark proper."""

    abi_pixels: int
    abi_epochs: int
    oci_pixels: int
    oci_epochs: int
    scene_train_pixels: int
    scene_epochs: int
    scene_pixels: int
    #: workload -> variant -> (acc_bi floor, r2_all floor) on every report
    floors: dict = field(default_factory=dict)


PROFILES = {
    # Floors sit below the lowest value seen over 30 to 40 workload seeds at
    # this commit.  Three epochs over 1,250 OCI training pixels, scored on a
    # 200-pixel test split, are erratic (acc_bi 0.59 to 0.92, R2 -0.62 to
    # 0.92 over 140 seeds), so its floors catch only a collapsed model.
    # oci-pipeline and scene-infer are sized so that no single call runs
    # much longer than a second: see calib.py.
    "full": Profile(
        abi_pixels=20_000, abi_epochs=3, oci_pixels=2_000, oci_epochs=3,
        scene_train_pixels=20_000, scene_epochs=1, scene_pixels=50_000,
        floors={
            "abi-ablate": {**{v: (0.84, 0.72) for v in VARIANTS},
                           "MLP-BASELINE": (0.80, 0.72)},
            "oci-pipeline": {"MT-HCCAR": (0.50, -2.0)},
            "scene-infer": {"MT-HCCAR": (0.70, 0.70)},
        }),
    # A few seconds per workload; too little training for quality floors.
    "smoke": Profile(
        abi_pixels=600, abi_epochs=1, oci_pixels=300, oci_epochs=1,
        scene_train_pixels=600, scene_epochs=1, scene_pixels=2_000),
}


class Checks:
    """Output checks of one run: how many were made and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Call:
    """One ``train_model`` or ``evaluate_model`` call the program made."""

    kind: str            # "train" or "eval"
    variant: str
    pixels: int          # pixel-visits (train) or pixels scored (eval)
    start: float         # perf_counter() before and after the call
    end: float
    result: object       # TrainResult or EvalReport


class CallLog:
    """Times ``workflow.train_model`` and ``workflow.evaluate_model``.

    Two clock reads per call, in traced and untraced runs alike; this is
    what gives ``train_px_per_s`` and ``infer_px_per_s`` their time base.
    Untraced runs turn the readings into calibrated seconds (``calib.py``).
    """

    def __init__(self):
        self.calls: list[Call] = []

    def take(self) -> list[Call]:
        calls, self.calls = self.calls, []
        return calls

    @contextmanager
    def installed(self):
        train, evaluate = workflow.train_model, workflow.evaluate_model

        def timed_train(model, train_targets, config, val_targets=None):
            t0 = perf_counter()
            result = train(model, train_targets, config, val_targets)
            self.calls.append(Call(
                "train", model.spec.variant, config.epochs * len(train_targets),
                t0, perf_counter(), result))
            return result

        def timed_evaluate(model, standardizer, ds):
            t0 = perf_counter()
            pred, report = evaluate(model, standardizer, ds)
            self.calls.append(Call("eval", model.spec.variant, len(ds),
                                   t0, perf_counter(), report))
            return pred, report

        workflow.train_model, workflow.evaluate_model = timed_train, timed_evaluate
        try:
            yield
        finally:
            workflow.train_model, workflow.evaluate_model = train, evaluate


def weights_sha256(params) -> str:
    """SHA-256 over every parameter's name, shape and float64 bytes."""
    h = hashlib.sha256()
    for name, t in params.items():
        h.update(name.encode())
        h.update(repr(t.value.shape).encode())
        h.update(np.ascontiguousarray(t.value).tobytes())
    return h.hexdigest()


def predictions_sha256(pred: models.Predictions) -> str:
    h = hashlib.sha256()
    for f in fields(pred):
        h.update(np.ascontiguousarray(getattr(pred, f.name)).tobytes())
    return h.hexdigest()


def same_dataset(a: data.PixelDataset, b: data.PixelDataset) -> bool:
    """Bit-for-bit equality of every column (NaN thickness included)."""
    if a.sensor.name != b.sensor.name:
        return False
    for f in fields(a):
        if f.name == "sensor":
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if x.shape != y.shape or x.tobytes() != y.tobytes():
            return False
    return True


def losses_finite(result: models.TrainResult) -> bool:
    for records in result.histories.values():
        for r in records:
            values = [r.l_cmask, r.l_cphase, r.l_reg, r.l_caux, r.l_rec,
                      r.l_lasso, r.total]
            if r.val_total is not None:
                values.append(r.val_total)
            if not all(math.isfinite(v) for v in values):
                return False
    return True


class Workload:
    """Set-up, timed unit and checks of one workload."""

    name = ""
    trains_in_setup = False              # else every unit trains
    #: the speed probe's parts that calibrate this workload's timings
    probe_parts = ("python",)

    def __init__(self, profile: Profile, seed: int, workdir: str,
                 checks: Checks):
        self.profile = profile
        self.workdir = workdir
        self.checks = checks
        self.tracer = None               # set by the runner while tracing
        self.data_seed, self.scene_seed = (
            int(s) for s in np.random.SeedSequence(seed).generate_state(2))
        self.floors = profile.floors.get(self.name, {})

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def cli(self, *argv) -> None:
        """Run one ``cloudmtl`` subcommand in-process, quietly."""
        argv = [str(a) for a in argv]
        span = "cli." + argv[0].replace("-", "_")
        with self.span(span), redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cloudmtl {argv[0]} exited with code {code}")

    def train_flags(self, epochs: int) -> list:
        return ["--epochs", epochs, "--lr", LR, "--batch-size", BATCH,
                "--seed", TRAIN_SEED]

    def check_reload(self, run_dir: str, ds: data.PixelDataset) -> None:
        """The reloaded checkpoint reproduces ``eval.json`` on the test split."""
        model, standardizer, _ = workflow.load_trained(
            os.path.join(run_dir, workflow.CHECKPOINT_NAME))
        with open(os.path.join(run_dir, workflow.CONFIG_NAME)) as f:
            plan = data.SplitPlan(**json.load(f)["split"])
        test = ds.subset(data.split_indices(len(ds), plan)[2])
        _, report = workflow.evaluate_model(model, standardizer, test)
        with open(os.path.join(run_dir, workflow.EVAL_NAME)) as f:
            written = f.read()
        self.checks.check(report.to_json() + "\n" == written,
                          f"{self.name}: reloaded checkpoint scores differ "
                          f"from eval.json")

    def check_calls(self, calls: list[Call]) -> None:
        """Finite losses for every training; quality floors for every report."""
        for c in calls:
            if c.kind == "train":
                self.checks.check(losses_finite(c.result),
                                  f"{c.variant}: non-finite loss")
            elif c.variant in self.floors:
                acc_floor, r2_floor = self.floors[c.variant]
                self.checks.check(
                    c.result.acc_bi >= acc_floor,
                    f"{c.variant}: acc_bi {c.result.acc_bi} < {acc_floor}")
                self.checks.check(
                    c.result.r2_all is not None and c.result.r2_all >= r2_floor,
                    f"{c.variant}: r2 {c.result.r2_all} < {r2_floor}")

    # hooks ----------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def check_setup(self) -> None:
        pass

    def warm_up(self) -> None:
        pass

    def unit(self):
        raise NotImplementedError

    def check(self, out) -> None:
        pass

    def inference_input(self, out) -> tuple:
        """(model, standardizer, dataset) for the traced memory probe."""
        raise NotImplementedError


class AbiAblate(Workload):
    name = "abi-ablate"

    def setup(self) -> None:
        csv = self.path("abi.csv")
        self.cli("gen-data", "--sensor", "ABI", "--n", self.profile.abi_pixels,
                 "--seed", self.data_seed, "--out", csv)
        self.ds = data.load_csv(csv)
        self.weights: dict[str, str] | None = None

    def check_setup(self) -> None:
        ref = data.generate_dataset(data.get_sensor("ABI"),
                                    self.profile.abi_pixels, self.data_seed)
        self.checks.check(same_dataset(ref, self.ds),
                          "ABI CSV round trip is not bit-exact")

    def unit(self):
        specs = [models.ArchitectureSpec(variant=v, input_dim=self.ds.feature_dim)
                 for v in VARIANTS]
        config = TrainConfig(lr=LR, epochs=self.profile.abi_epochs,
                             batch_size=BATCH, seed=TRAIN_SEED)
        return workflow.run_ablation(self.ds, specs, config, data.SplitPlan(),
                                     outdir=self.path("ablation"),
                                     sensor_name="ABI")

    def check(self, results) -> None:
        weights = {}
        for variant, r in results.items():
            reloaded, standardizer, _ = workflow.load_trained(
                self.path("ablation", variant, workflow.CHECKPOINT_NAME))
            test = self.ds.subset(r.test_idx)
            before, _ = workflow.evaluate_model(r.model, r.standardizer, test)
            after, _ = workflow.evaluate_model(reloaded, standardizer, test)
            self.checks.check(
                predictions_sha256(before) == predictions_sha256(after),
                f"{variant}: reloaded checkpoint predicts differently")
            weights[variant] = weights_sha256(r.model.params)
        if self.weights is not None:
            for variant, sha in weights.items():
                self.checks.check(sha == self.weights[variant],
                                  f"{variant}: repeat trained other weights")
        self.weights = weights
        shutil.rmtree(self.path("ablation"))

    def inference_input(self, results) -> tuple:
        r = results["MT-HCCAR"]
        return r.model, r.standardizer, self.ds.subset(r.test_idx)


class OciPipeline(Workload):
    name = "oci-pipeline"

    def setup(self) -> None:
        self.reference = data.generate_dataset(
            data.get_sensor("OCI"), self.profile.oci_pixels, self.data_seed)

    def unit(self):
        csv, run_dir = self.path("oci.csv"), self.path("oci-run")
        self.cli("gen-data", "--sensor", "OCI", "--n", self.profile.oci_pixels,
                 "--seed", self.data_seed, "--out", csv)
        self.cli("train", "--data", csv, "--sensor", "OCI",
                 "--variant", "MT-HCCAR", "--outdir", run_dir,
                 *self.train_flags(self.profile.oci_epochs))
        # apply the saved model to the saved file, as a user scoring it would
        ds = data.load_csv(csv)
        model, standardizer, _ = workflow.load_trained(
            os.path.join(run_dir, workflow.CHECKPOINT_NAME))
        workflow.evaluate_model(model, standardizer, ds)
        return ds, model, standardizer

    def check(self, out) -> None:
        ds = out[0]
        self.checks.check(same_dataset(self.reference, ds),
                          "OCI CSV round trip is not bit-exact")
        self.check_reload(self.path("oci-run"), ds)
        shutil.rmtree(self.path("oci-run"))
        os.remove(self.path("oci.csv"))

    def inference_input(self, out) -> tuple:
        ds, model, standardizer = out
        return model, standardizer, ds


class SceneInfer(Workload):
    name = "scene-infer"
    trains_in_setup = True
    probe_parts = ("python", "array")

    def setup(self) -> None:
        csv, run_dir = self.path("train.csv"), self.path("scene-run")
        self.cli("gen-data", "--sensor", "ABI", "--n",
                 self.profile.scene_train_pixels, "--seed", self.data_seed,
                 "--out", csv)
        self.cli("train", "--data", csv, "--sensor", "ABI",
                 "--variant", "MT-HCCAR", "--outdir", run_dir,
                 *self.train_flags(self.profile.scene_epochs))
        self.model, self.standardizer, _ = workflow.load_trained(
            os.path.join(run_dir, workflow.CHECKPOINT_NAME))
        self.scene = data.generate_dataset(
            data.get_sensor("ABI"), self.profile.scene_pixels, self.scene_seed)

    def check_setup(self) -> None:
        ds = data.load_csv(self.path("train.csv"))
        ref = data.generate_dataset(data.get_sensor("ABI"),
                                    self.profile.scene_train_pixels,
                                    self.data_seed)
        self.checks.check(same_dataset(ref, ds),
                          "ABI CSV round trip is not bit-exact")
        self.check_reload(self.path("scene-run"), ds)

    def warm_up(self) -> None:
        pred, _ = workflow.evaluate_model(self.model, self.standardizer,
                                          self.scene)
        self.digest = predictions_sha256(pred)

    def unit(self):
        pred, _ = workflow.evaluate_model(self.model, self.standardizer,
                                          self.scene)
        return pred

    def check(self, pred) -> None:
        self.checks.check(predictions_sha256(pred) == self.digest,
                          "scene predictions differ between repeats")

    def inference_input(self, out) -> tuple:
        return self.model, self.standardizer, self.scene


WORKLOADS = {w.name: w for w in (AbiAblate, OciPipeline, SceneInfer)}
