"""Spans, counters and the traced training loop of the benchmark's traced run.

Everything here wraps public functions of ``cloudmtl`` from the outside, for
the traced run only; the program itself carries no tracing hook.  A
:class:`Tracer` keeps its spans and counters in memory, and
:meth:`Tracer.metrics` turns them into the per-layer metrics at the end.

* Stage spans (``data.*``, ``cli.*``, ``workflow.*``, ``engine.*_checkpoint``,
  ``metrics.evaluate``) come from wrapping the module attributes the program
  calls through (``cloudmtl.cli.save_csv``, ``cloudmtl.workflow.train_model``,
  ...); :meth:`Tracer.installed` puts the wrappers in place and restores the
  originals on exit.
* Step phases come from :meth:`Tracer.train_model`, which replaces
  ``workflow.train_model`` for the jointly trained variants.  It drives the
  same step loop as ``cloudmtl.models.train_model`` from public calls
  (``LossTargets.take``, ``Model.forward``, ``compute_loss``,
  ``ParamStore.zero_grads``, ``backward``, ``optimizer_step``) and times each
  phase.  :func:`check_fidelity` proves the loop is the same by comparing the
  trained weights of both loops by SHA-256.  SEQ trains through the original
  function, because its loss closures are private: it has no step phases.
* Engine primitives are wrapped on the ``cloudmtl.engine`` module.  Inside a
  traced training step each call adds its forward time, and the graph nodes
  it created get a timed VJP, so ``engine.op.<name>.s`` is forward plus VJP
  time.  Ops run inside ``Model.forward`` are also charged to the layer that
  owns the parameters they read (``encoder.0``, ``attn``, ...); an op reading
  no parameter is charged to the layer of its first charged operand, and an
  op reading parameters alone (``transpose(attn.wq)``) yields a parameter.
"""

from __future__ import annotations

import os
import tracemalloc
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, fields
from time import perf_counter

import numpy as np

from cloudmtl import cli, data, engine, models, workflow
from cloudmtl.data import Standardizer

from workloads import weights_sha256

#: public engine functions that build graph nodes; each is wrapped by name
ENGINE_OPS = (
    "constant", "add", "sub", "mul", "div", "neg", "matmul", "transpose",
    "dense", "activation", "relu", "sigmoid", "clamped_sigmoid", "clamp",
    "log", "absval", "reduce_sum", "reduce_mean", "softmax_rows",
    "outer_rows", "bmatvec", "col", "as_column",
)

#: variants whose traced weights are compared with ``models.train_model``
FIDELITY_VARIANTS = ("MT-HCCAR", "MT-CR")

#: the variant every workload trains; per-step figures describe it
STEP_VARIANT = "MT-HCCAR"

#: spans reported as ``<name>_s`` totals, when the workload reached them
STAGE_SPANS = ("data.generate", "data.save_csv", "data.load_csv",
               "data.standardize", "cli.gen_data", "cli.train",
               "models.validate", "metrics.evaluate", "engine.checkpoint_save",
               "engine.checkpoint_load")

PHASES = ("models.batch_take", "models.forward", "models.loss",
          "engine.zero_grads", "engine.backward", "engine.optimizer")


@contextmanager
def _patched(obj, attr: str, value):
    original = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, original)


@dataclass
class _FidelityJob:
    spec: models.ArchitectureSpec
    init_values: dict
    train_targets: models.LossTargets
    config: engine.TrainConfig
    val_targets: models.LossTargets | None
    weights_sha: str
    result: models.TrainResult


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.phase_s: dict[str, float] = defaultdict(float)
        self.step_s: dict[str, list[float]] = defaultdict(list)
        self.train_px: dict[str, int] = defaultdict(int)
        self.graph: dict[str, tuple[int, int, int]] = {}
        self.op_calls: dict[str, int] = defaultdict(int)
        self.op_s: dict[str, float] = defaultdict(float)
        self.layer_s: dict[str, float] = defaultdict(float)
        self.fidelity_jobs: list[_FidelityJob] = []
        self.values: dict[str, tuple[float, str]] = {}
        self._ops_on = False
        self._param_layer: dict[int, str] | None = None
        self._tags: dict[int, str] = {}

    # ----- spans ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = perf_counter()
            self._stack.pop()

    def _spanned(self, name: str, fn, count_bytes=None, path_arg=0):
        """``fn`` inside a span; optionally count the bytes of the file it wrote."""
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count_bytes is not None:
                self.counts[count_bytes] += os.path.getsize(args[path_arg])
            return out
        return traced

    def _total(self, name: str) -> float:
        return sum(e - s for n, s, e, _ in self.spans if n == name)

    def _children(self, idx: int, name: str) -> list[list]:
        return [sp for sp in self.spans if sp[3] == idx and sp[0] == name]

    # ----- engine primitives ---------------------------------------------

    def _layer_of(self, args) -> str | None:
        for a in args:
            if isinstance(a, engine.Tensor) and id(a) in self._param_layer:
                return self._param_layer[id(a)]
        for a in args:
            if isinstance(a, engine.Tensor) and id(a) in self._tags:
                return self._tags[id(a)]
        return None

    def _timed_vjp(self, op: str, layer: str | None, vjp):
        def timed(g):
            t0 = perf_counter()
            out = vjp(g)
            dt = perf_counter() - t0
            self.op_s[op] += dt
            if layer is not None:
                self.layer_s[layer] += dt
            return out
        return timed

    def _wrap_op(self, op: str, fn):
        def traced(*args, **kwargs):
            if not self._ops_on:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            self.op_calls[op] += 1
            self.op_s[op] += dt
            layer = None
            if self._param_layer is not None:
                layer = self._layer_of(args)
                if layer is not None:
                    self.layer_s[layer] += dt
                    tensors = [a for a in args if isinstance(a, engine.Tensor)]
                    # an op on parameters alone (``transpose(attn.wq)``)
                    # yields a parameter of the same layer
                    owner = (self._param_layer if all(
                        id(a) in self._param_layer for a in tensors)
                        else self._tags)
                    owner[id(out)] = layer
            # Time the VJP of every node this call created (``dense`` builds
            # two); operands were created earlier and keep their own.
            operands = {id(a) for a in args if isinstance(a, engine.Tensor)}
            stack, seen = [out], set()
            while stack:
                node = stack.pop()
                if id(node) in operands or id(node) in seen or node.vjp is None:
                    continue
                seen.add(id(node))
                node.vjp = self._timed_vjp(op, layer, node.vjp)
                stack.extend(node.parents)
            return out
        return traced

    # ----- the traced training loop --------------------------------------

    def train_model(self, original):
        """A drop-in for ``workflow.train_model`` that times each step phase."""

        def traced(model, train_targets, config, val_targets=None):
            variant = model.spec.variant
            with self.span(f"models.train_model.{variant}"):
                if variant == models.VARIANT_SEQ:
                    result = original(model, train_targets, config, val_targets)
                    self.train_px[variant] += config.epochs * len(train_targets)
                    return result
                init = model.params.clone_values()
                result = self._train_joint(model, train_targets, config,
                                           val_targets)
            if variant in FIDELITY_VARIANTS:
                self.fidelity_jobs.append(_FidelityJob(
                    model.spec, init, train_targets, config, val_targets,
                    weights_sha256(model.params), result))
            return result
        return traced

    def _train_joint(self, model, train_targets, config, val_targets):
        config.validate()
        variant = model.spec.variant
        param_layer = {id(t): name.rsplit(".", 1)[0]
                       for name, t in model.params.items()}
        rng = np.random.default_rng(config.seed)
        state = engine.AdamState()
        records = []
        n = len(train_targets)
        phase_s, steps = self.phase_s, self.step_s[variant]
        for epoch in range(config.epochs):
            sums = np.zeros(7)
            perm = rng.permutation(n)
            batches = [perm[i:i + config.batch_size]
                       for i in range(0, n, config.batch_size)]
            for idx in batches:
                self._ops_on = True
                t0 = perf_counter()
                bt = train_targets.take(idx)
                t1 = perf_counter()
                self._param_layer, self._tags = dict(param_layer), {}
                outputs = model.forward(bt.x, train_mode=True)
                self._param_layer = None
                t2 = perf_counter()
                total, parts = models.compute_loss(outputs, bt, model.spec,
                                                   model.params)
                t3 = perf_counter()
                model.params.zero_grads()
                t4 = perf_counter()
                engine.backward(total)
                t5 = perf_counter()
                engine.optimizer_step(model.params, config, state)
                t6 = perf_counter()
                sums += (parts.l_cmask, parts.l_cphase, parts.l_reg,
                         parts.l_caux, parts.l_rec, parts.l_lasso, parts.total)
                t7 = perf_counter()
                self._ops_on = False
                for name, a, b in zip(PHASES, (t0, t1, t2, t3, t4, t5),
                                      (t1, t2, t3, t4, t5, t6)):
                    phase_s[name] += b - a
                steps.append(t7 - t0)
                if variant not in self.graph:
                    self.graph[variant] = _grad_counts(total)
            self.train_px[variant] += n
            means = sums / len(batches)
            val_total = None
            if val_targets is not None and len(val_targets) > 0:
                with self.span("models.validate"):
                    v_out = model.forward(val_targets.x, train_mode=True)
                    _, v_parts = models.compute_loss(v_out, val_targets,
                                                     model.spec, model.params)
                val_total = v_parts.total
            records.append(models.EpochRecord(epoch, *means,
                                              val_total=val_total))
        return models.TrainResult(histories={"model": records})

    # ----- installation --------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the program's public entry points; restore them on exit."""
        spanned = [
            (cli, "generate_dataset", "data.generate", None, 0),
            (data, "generate_dataset", "data.generate", None, 0),
            (cli, "save_csv", "data.save_csv", "data.csv_bytes", 1),
            (data, "save_csv", "data.save_csv", "data.csv_bytes", 1),
            (cli, "load_csv", "data.load_csv", None, 0),
            (data, "load_csv", "data.load_csv", None, 0),
            (workflow, "run_ablation", "workflow.run_ablation", None, 0),
            (workflow, "run_training", "workflow.run_training", None, 0),
            (workflow, "evaluate_model", "workflow.evaluate_model", None, 0),
            (workflow, "evaluate_predictions", "metrics.evaluate", None, 0),
            (workflow, "save_checkpoint", "engine.checkpoint_save",
             "engine.checkpoint_bytes", 0),
            (workflow, "load_checkpoint", "engine.checkpoint_load", None, 0),
        ]
        fit = Standardizer.__dict__["fit"].__func__
        transform = Standardizer.transform
        with ExitStack() as stack:
            for module, attr, name, count, path_arg in spanned:
                fn = getattr(module, attr)
                stack.enter_context(_patched(
                    module, attr, self._spanned(name, fn, count, path_arg)))
            stack.enter_context(_patched(
                Standardizer, "fit",
                classmethod(self._spanned("data.standardize", fit))))
            stack.enter_context(_patched(
                Standardizer, "transform",
                self._spanned("data.standardize", transform)))
            stack.enter_context(_patched(
                workflow, "train_model", self.train_model(workflow.train_model)))
            for op in ENGINE_OPS:
                stack.enter_context(_patched(
                    engine, op, self._wrap_op(op, getattr(engine, op))))
            yield

    # ----- results -------------------------------------------------------

    def _artifacts_s(self) -> float:
        """Time a run spends after its last evaluation: writing artifacts."""
        total = 0.0
        for idx, (name, _, end, _) in enumerate(self.spans):
            if name == "workflow.run_training":
                evals = self._children(idx, "workflow.evaluate_model")
            elif name == "workflow.run_ablation":
                evals = self._children(idx, "workflow.run_training")
            else:
                continue
            if evals:
                total += end - max(sp[2] for sp in evals)
        return total

    def _predict_s(self) -> float:
        """evaluate_model's time outside standardizing and metric scoring."""
        total = 0.0
        for idx, (name, start, end, _) in enumerate(self.spans):
            if name == "workflow.evaluate_model":
                inner = (self._children(idx, "data.standardize")
                         + self._children(idx, "metrics.evaluate"))
                total += (end - start) - sum(e - s for _, s, e, _ in inner)
        return total

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer figure this run produced, as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in STAGE_SPANS:
            if any(sp[0] == name for sp in self.spans):
                out[f"{name}_s"] = (self._total(name), "s")
        for key, value in sorted(self.counts.items()):
            out[key] = (value, "bytes")
        out["workflow.artifacts_s"] = (self._artifacts_s(), "s")
        out["models.predict_s"] = (self._predict_s(), "s")

        if self.phase_s:
            for name in PHASES:
                out[f"{name}_s"] = (self.phase_s[name], "s")
            all_steps = [s for steps in self.step_s.values() for s in steps]
            out["models.step_phase_coverage"] = (
                sum(self.phase_s.values()) / sum(all_steps), "ratio")
        steps = self.step_s.get(STEP_VARIANT)
        if steps:
            p50, p90 = np.percentile(steps, (50, 90)) * 1e3
            out["models.step_ms_p50"] = (float(p50), "ms")
            out["models.step_ms_p90"] = (float(p90), "ms")
            out["models.step_count"] = (len(steps), "count")
        for variant, px in sorted(self.train_px.items()):
            secs = self._total(f"models.train_model.{variant}")
            out[f"models.{variant}.train_px_per_s"] = (px / secs, "1/s")
        if STEP_VARIANT in self.graph:
            nodes, grads, leaf_grads = self.graph[STEP_VARIANT]
            out["engine.graph_nodes_per_step"] = (nodes, "count")
            out["engine.grad_arrays_per_step"] = (grads, "count")
            out["engine.useful_grad_ratio"] = (leaf_grads / grads, "ratio")
        for op in sorted(self.op_calls):
            out[f"engine.op.{op}.calls"] = (self.op_calls[op], "count")
            out[f"engine.op.{op}.s"] = (self.op_s[op], "s")
        for layer in sorted(self.layer_s):
            out[f"models.layer.{layer}.s"] = (self.layer_s[layer], "s")
        for key, value in self.values.items():
            out[key] = value
        return out

    def step_shares(self) -> dict[str, float]:
        """Each op's and layer's time as a share of all traced step time."""
        step_total = sum(s for steps in self.step_s.values() for s in steps)
        shares = {f"engine.op.{op}.s": s / step_total
                  for op, s in self.op_s.items()}
        shares.update({f"models.layer.{layer}.s": s / step_total
                       for layer, s in self.layer_s.items()})
        return shares


def _grad_counts(root) -> tuple[int, int, int]:
    """(graph nodes, nodes holding a grad, leaves holding a grad) from root."""
    nodes = grads = leaf_grads = 0
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes += 1
        if node.grad is not None:
            grads += 1
            if node.vjp is None:
                leaf_grads += 1
        stack.extend(node.parents)
    return nodes, grads, leaf_grads


def check_fidelity(tracer: Tracer) -> list[tuple[str, bool]]:
    """Retrain each recorded model with ``models.train_model`` and compare.

    Returns one (variant, passed) pair per job: the weights' SHA-256 and the
    loss histories must both equal those of the traced loop.
    """
    outcomes = []
    for job in tracer.fidelity_jobs:
        ref = models.build_model(job.spec, job.config.seed)
        ref.params.load_values(job.init_values)
        result = models.train_model(ref, job.train_targets, job.config,
                                    job.val_targets)
        same = (weights_sha256(ref.params) == job.weights_sha
                and result.histories == job.result.histories)
        outcomes.append((job.spec.variant, same))
    return outcomes


def graph_value_bytes(outputs) -> int:
    """Bytes of the distinct arrays reachable from a forward's output graph."""
    roots = [getattr(outputs, f.name) for f in fields(outputs)]
    stack = [t for t in roots if t is not None]
    seen: set[int] = set()
    buffers: dict[int, int] = {}
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        base = node.value
        while isinstance(base.base, np.ndarray):
            base = base.base
        buffers[id(base)] = base.nbytes
        stack.extend(node.parents)
    return sum(buffers.values())


def inference_memory(model, standardizer, ds) -> dict[str, tuple[float, str]]:
    """Graph bytes of one inference forward, and evaluate_model's traced peak."""
    feats = standardizer.transform(ds.feature_matrix())
    outputs = model.forward(feats, train_mode=False)
    graph_bytes = graph_value_bytes(outputs)
    del outputs, feats
    tracemalloc.start()
    try:
        workflow.evaluate_model(model, standardizer, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"engine.infer_graph_bytes": (graph_bytes, "bytes"),
            "engine.infer_peak_traced_mb": (peak / 2**20, "MB")}
