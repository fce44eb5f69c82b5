"""Mini-batch training loops.

The joint loop (all MT-* variants and the MLP baseline) shuffles the
training pixels each epoch with a generator seeded from the optimizer
config, walks fixed-size batches (last batch may be short), and applies one
adaptive-moment step per batch. Nothing stops early: the parameters after
the final epoch are the result.

The sequential pipeline (SEQ) trains its three subnets one after another:
mask net on all pixels, then, with mask predictions frozen, phase and COT
nets on the pixels the mask net calls cloudy (intersected with truly-cloudy,
where their supervision exists). If that intersection is empty the stage
falls back to the truly-cloudy pixels so training remains well-defined.

History rows record the mean of each loss component over the epoch's batches
plus the full-validation total (same loss definition, no updates) after the
epoch. The sequential pipeline yields one history per subnet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import engine as E
from ..engine import TrainConfig, AdamState, backward, optimizer_step
from ..errors import ConfigError
from .config import VARIANT_SEQ
from .losses import LossTargets, compute_loss, lasso_penalty
from .network import Model, SequentialModel

HISTORY_COLUMNS = ("epoch", "l_cmask", "l_cphase", "l_reg", "l_caux",
                   "l_rec", "l_lasso", "total", "val_total")


@dataclass
class EpochRecord:
    epoch: int
    l_cmask: float
    l_cphase: float
    l_reg: float
    l_caux: float
    l_rec: float
    l_lasso: float
    total: float
    val_total: float | None = None

    def row(self) -> list[str]:
        vals = [str(self.epoch)]
        for v in (self.l_cmask, self.l_cphase, self.l_reg, self.l_caux,
                  self.l_rec, self.l_lasso, self.total):
            vals.append(repr(float(v)))
        vals.append("" if self.val_total is None else repr(float(self.val_total)))
        return vals


@dataclass
class TrainResult:
    histories: dict[str, list[EpochRecord]]

    @property
    def history(self) -> list[EpochRecord]:
        """The single history of a jointly-trained model."""
        if len(self.histories) != 1:
            raise ConfigError(
                f"model has {len(self.histories)} histories "
                f"({list(self.histories)}); access them by name")
        return next(iter(self.histories.values()))


def history_csv(records: list[EpochRecord]) -> str:
    lines = [",".join(HISTORY_COLUMNS)]
    for r in records:
        lines.append(",".join(r.row()))
    return "\n".join(lines) + "\n"


def _batches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    perm = rng.permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]


def train_model(model: Model, train_targets: LossTargets, config: TrainConfig,
                val_targets: LossTargets | None = None) -> TrainResult:
    """Train in place; returns per-epoch histories."""
    config.validate()
    if len(train_targets) == 0:
        raise ConfigError("training set is empty")
    if model.spec.variant == VARIANT_SEQ:
        assert isinstance(model, SequentialModel)
        return _train_sequential(model, train_targets, config, val_targets)
    return TrainResult(histories={
        "model": _train_joint(model, train_targets, config, val_targets)})


def _train_joint(model: Model, train_targets: LossTargets, config: TrainConfig,
                 val_targets: LossTargets | None) -> list[EpochRecord]:
    rng = np.random.default_rng(config.seed)
    state = AdamState()
    records: list[EpochRecord] = []
    n = len(train_targets)
    for epoch in range(config.epochs):
        sums = np.zeros(7)
        batches = _batches(n, config.batch_size, rng)
        for idx in batches:
            bt = train_targets.take(idx)
            outputs = model.forward(bt.x, train_mode=True)
            total, parts = compute_loss(outputs, bt, model.spec, model.params)
            model.params.zero_grads()
            backward(total)
            optimizer_step(model.params, config, state)
            sums += (parts.l_cmask, parts.l_cphase, parts.l_reg, parts.l_caux,
                     parts.l_rec, parts.l_lasso, parts.total)
        means = sums / len(batches)
        val_total = None
        if val_targets is not None and len(val_targets) > 0:
            v_out = model.forward(val_targets.x, train_mode=True)
            _, v_parts = compute_loss(v_out, val_targets, model.spec, model.params)
            val_total = v_parts.total
        records.append(EpochRecord(epoch, *means, val_total=val_total))
    return records


# ---------------------------------------------------------------------------
# sequential pipeline


def _stage_subset(model: SequentialModel, targets: LossTargets) -> np.ndarray:
    """Pixels for the phase/COT stages: predicted-cloudy intersect cloudy."""
    out = model.forward(targets.x, train_mode=False)
    predicted = out.u_cloud.value >= model.spec.threshold
    idx = np.flatnonzero(predicted & targets.cloudy)
    if idx.size == 0:
        idx = np.flatnonzero(targets.cloudy)
    return idx


def _train_sequential(model: SequentialModel, train_targets: LossTargets,
                      config: TrainConfig, val_targets: LossTargets | None
                      ) -> TrainResult:
    spec = model.spec
    lam = spec.lasso_lambda

    def mask_loss(batch: LossTargets):
        logits = model._subnet_forward("mask_net", E.constant(batch.x))
        u = E.clamp(E.sigmoid(logits), E.PROB_EPS, 1.0 - E.PROB_EPS)
        ce = E.constant(0.0)
        for j, labels in ((0, batch.l_cloud), (1, batch.l_clear)):
            col = E.col(u, j)
            pos = E.mul(E.constant(labels), E.log(col))
            neg = E.mul(E.constant(1.0 - labels), E.log(E.sub(1.0, col)))
            ce = E.sub(ce, E.reduce_mean(E.add(pos, neg)))
        lasso = lasso_penalty(model.subnet_params["mask_net"], lam)
        total = E.add(ce, lasso)
        return total, {"l_cmask": float(ce.value), "l_lasso": float(lasso.value),
                       "total": float(total.value)}

    def phase_loss(batch: LossTargets):
        logits = model._subnet_forward("phase_net", E.constant(batch.x))
        u = E.clamp(E.sigmoid(logits), E.PROB_EPS, 1.0 - E.PROB_EPS)
        ce = E.constant(0.0)
        for j, labels in ((0, batch.l_liquid), (1, batch.l_ice)):
            col = E.col(u, j)
            pos = E.mul(E.constant(labels), E.log(col))
            neg = E.mul(E.constant(1.0 - labels), E.log(E.sub(1.0, col)))
            ce = E.sub(ce, E.reduce_mean(E.add(pos, neg)))
        lasso = lasso_penalty(model.subnet_params["phase_net"], lam)
        total = E.add(ce, lasso)
        return total, {"l_cphase": float(ce.value), "l_lasso": float(lasso.value),
                       "total": float(total.value)}

    def cot_loss(batch: LossTargets):
        y = E.col(model._subnet_forward("cot_net", E.constant(batch.x)), 0)
        err = E.reduce_sum(E.absval(E.sub(y, E.constant(batch.y_cot))))
        if spec.reg_norm == "mean":
            err = E.div(err, E.constant(max(float(len(batch)), 1.0)))
        lasso = lasso_penalty(model.subnet_params["cot_net"], lam)
        total = E.add(err, lasso)
        return total, {"l_reg": float(err.value), "l_lasso": float(lasso.value),
                       "total": float(total.value)}

    histories: dict[str, list[EpochRecord]] = {}
    stages = [("mask_net", mask_loss, None), ("phase_net", phase_loss, "subset"),
              ("cot_net", cot_loss, "subset")]
    for net, loss_fn, subsetting in stages:
        if subsetting == "subset":
            stage_train = train_targets.take(_stage_subset(model, train_targets))
            stage_val = (val_targets.take(_stage_subset(model, val_targets))
                         if val_targets is not None and len(val_targets) else None)
        else:
            stage_train, stage_val = train_targets, val_targets
        rng = np.random.default_rng(config.seed)
        state = AdamState()
        records: list[EpochRecord] = []
        ps = model.subnet_params[net]
        n = len(stage_train)
        if n == 0:
            raise ConfigError(f"sequential stage {net} has no training pixels")
        for epoch in range(config.epochs):
            comp_sums: dict[str, float] = {}
            batches = _batches(n, config.batch_size, rng)
            for idx in batches:
                total, parts = loss_fn(stage_train.take(idx))
                ps.zero_grads()
                backward(total)
                optimizer_step(ps, config, state)
                for k, v in parts.items():
                    comp_sums[k] = comp_sums.get(k, 0.0) + v
            means = {k: v / len(batches) for k, v in comp_sums.items()}
            val_total = None
            if stage_val is not None and len(stage_val) > 0:
                _, v_parts = loss_fn(stage_val)
                val_total = v_parts["total"]
            records.append(EpochRecord(
                epoch,
                means.get("l_cmask", 0.0), means.get("l_cphase", 0.0),
                means.get("l_reg", 0.0), 0.0, 0.0,
                means.get("l_lasso", 0.0), means.get("total", 0.0),
                val_total=val_total))
        histories[net] = records
    return TrainResult(histories=histories)
