"""The speed probe that puts the benchmark's timings on a steady footing.

On a small shared virtual machine the processor's speed drifts by itself:
one and the same one-epoch training took from 0.09 s to 0.24 s within five
minutes, with process CPU time equal to wall time and almost no steal time.
The program was not descheduled; it ran slower, in stretches of seconds.
A 20-second run then reads up to a third faster or slower than the next one,
whatever the program does.

An untraced run therefore interleaves a fixed reference computation, the
probe, with the program's work: at least every :data:`PROBE_EVERY_S`
seconds, at the boundaries of public calls (:data:`PROBE_POINTS`), and
between set-ups and timed units.  Every stretch of time between two probes
is scaled by ``nominal / p``, where ``p`` is the mean duration of those two
probes and ``nominal`` the duration in :data:`NOMINAL_S`, so a timing reads
as the seconds the work would take on a machine that runs the probe in that
time.  Probe time itself
is left out of every timing.  The probe touches only its own arrays and
strings; it does not change what the program computes.

In five minutes of that drift, with training, whole-scene inference and a
CSV write and read taking turns, the medians of 20-second windows of raw
times spread by 19% to 23% between their quartiles, for each of the three;
scaled by probes on both sides of each call, by 5% to 7%.
"""

from __future__ import annotations

import math
import statistics
from contextlib import ExitStack, contextmanager
from time import perf_counter

import numpy as np

from cloudmtl import cli, data, models, workflow

#: each probe part's duration that calibrated seconds are expressed at
NOMINAL_S = {"python": 0.001, "array": 0.001}

#: a probe point runs the probe when the last one ended this long ago
PROBE_EVERY_S = 0.2

#: public callables the program goes through; a probe may run before and
#: after each call (``LossTargets.take`` runs once per training batch)
PROBE_POINTS = (
    (cli, "generate_dataset"), (cli, "save_csv"), (cli, "load_csv"),
    (data, "generate_dataset"), (data, "load_csv"),
    (workflow, "run_training"), (workflow, "train_model"),
    (workflow, "evaluate_model"), (workflow, "predictions_from_outputs"),
    (workflow, "evaluate_predictions"), (workflow, "save_checkpoint"),
    (workflow, "load_checkpoint"), (models.LossTargets, "take"),
)


class Speedometer:
    """Probes the machine's speed and converts raw intervals to calibrated ones.

    The probe has two parts.  ``python`` is small matrix products, as in
    training steps, and float text round trips, as in CSV I/O: work bound by
    the interpreter.  ``array`` is one product whose freshly allocated result
    outgrows the caches, as in whole-scene inference.  The drift slows the
    two kinds of work by different amounts: when the ``python`` part took
    twice as long, a whole-scene inference took only a third longer.  So a
    timing is calibrated with the parts that resemble it: training
    throughput with ``python``, inference throughput with both, and the
    other timings with the parts their workload names.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 32))
        self._b = rng.standard_normal((32, 32))
        self._floats = rng.standard_normal(256).tolist()
        self._x = rng.standard_normal((4000, 16))
        self._w = rng.standard_normal((16, 64))
        self.parts = ("python", "array")
        #: (start, end, {part: seconds}) of every probe, in time order
        self.probes: list[tuple[float, float, dict[str, float]]] = []

    def _python(self) -> float:
        acc = 0.0
        for _ in range(100):
            acc += float(np.maximum(self._a @ self._b, 0.0).sum())
        return acc + sum(float(repr(x)) for x in self._floats)

    def _array(self) -> float:
        return float(np.maximum(self._x @ self._w, 0.0).sum())

    def probe(self) -> None:
        """Run each part three times; the median of each is one probe."""
        start = perf_counter()
        reps = {part: [] for part in self.parts}
        for _ in range(3):
            for part in self.parts:
                t0 = perf_counter()
                getattr(self, "_" + part)()
                reps[part].append(perf_counter() - t0)
        self.probes.append((start, perf_counter(),
                            {p: statistics.median(r) for p, r in reps.items()}))

    def maybe_probe(self) -> None:
        if not self.probes or perf_counter() - self.probes[-1][1] >= PROBE_EVERY_S:
            self.probe()

    def _gaps(self, parts):
        """(start, end, probe seconds of ``parts``) of every stretch between probes."""
        p = [(start, end, sum(t[part] for part in parts))
             for start, end, t in self.probes]
        yield -math.inf, p[0][0], p[0][2]
        for before, after in zip(p, p[1:]):
            yield before[1], after[0], (before[2] + after[2]) / 2
        yield p[-1][1], math.inf, p[-1][2]

    def seconds(self, a: float, b: float, parts=("python",)) -> float:
        """Calibrated seconds of the interval [a, b], probes left out."""
        nominal = sum(NOMINAL_S[part] for part in parts)
        total = 0.0
        for lo, hi, probe_s in self._gaps(parts):
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                total += overlap * nominal / probe_s
        return total

    def raw_seconds(self, a: float, b: float) -> float:
        """Wall seconds of the interval [a, b], probes left out."""
        return sum(max(min(b, hi) - max(a, lo), 0.0)
                   for lo, hi, _ in self._gaps(("python",)))

    def factor(self, a: float, b: float, parts=("python",)) -> float:
        """Calibrated over raw seconds, for a duration measured elsewhere."""
        return self.seconds(a, b, parts) / self.raw_seconds(a, b)

    def summary(self) -> str:
        out = [f"probes={len(self.probes)}"]
        for part in self.parts:
            ms = sorted(t[part] * 1e3 for _, _, t in self.probes)
            out.append(f"{part}_ms_min={ms[0]:.3f} "
                       f"{part}_ms_median={statistics.median(ms):.3f} "
                       f"{part}_ms_max={ms[-1]:.3f}")
        return " ".join(out)

    def _probing(self, fn):
        def probed(*args, **kwargs):
            self.maybe_probe()
            try:
                return fn(*args, **kwargs)
            finally:
                self.maybe_probe()
        return probed

    @contextmanager
    def installed(self):
        """Put a probe point on each of :data:`PROBE_POINTS`; restore on exit."""
        with ExitStack() as stack:
            for owner, attr in PROBE_POINTS:
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
                setattr(owner, attr, self._probing(original))
                stack.callback(setattr, owner, attr, original)
            yield
