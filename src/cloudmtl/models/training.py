"""The mini-batch training loop, shared by every variant.

``_fit`` is the one epoch loop. It shuffles the training pixels each epoch
with a generator seeded from the optimizer config, walks fixed-size batches
(the last batch may be short), and applies one adaptive-moment step per
batch to one parameter store. Nothing stops early: the parameters after the
final epoch are the result.

The jointly-trained variants (MT-* and the MLP baseline) run it once on the
composite loss. The sequential pipeline (SEQ) runs it once per subnet, with
``losses.stage_loss`` as the loss: mask net on all pixels, then, with mask
predictions frozen, phase and COT nets on the pixels the mask net calls
cloudy (intersected with truly-cloudy, where their supervision exists). If
that intersection is empty the stages fall back to the truly-cloudy pixels
so training remains well-defined.

History rows record the mean of each loss component over the epoch's batches
plus the full-validation total (same loss definition, no updates) after the
epoch. The sequential pipeline yields one history per subnet.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from ..engine import (
    TrainConfig, AdamState, ParamStore, backward, no_grad, optimizer_step,
)
from ..data.csvio import csv_text
from ..errors import ConfigError
from .losses import LossTargets, compute_loss, stage_loss
from .config import SEQ_STAGES
from .network import Model, SequentialModel, forward_chunks


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


HISTORY_COLUMNS = tuple(f.name for f in fields(EpochRecord))
#: the loss components averaged over an epoch's batches
_MEAN_COLUMNS = HISTORY_COLUMNS[1:-1]


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
    return csv_text([HISTORY_COLUMNS, *(
        (r.epoch, *(float(getattr(r, c)) for c in _MEAN_COLUMNS),
         None if r.val_total is None else float(r.val_total))
        for r in records)])


def _batches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    perm = rng.permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]


def train_model(model: Model, train_targets: LossTargets, config: TrainConfig,
                val_targets: LossTargets | None = None) -> TrainResult:
    """Train in place; returns per-epoch histories."""
    if len(train_targets) == 0:
        raise ConfigError("training set is empty")
    if isinstance(model, SequentialModel):
        return _train_sequential(model, train_targets, config, val_targets)
    return TrainResult(histories={"model": _fit(
        model.params, partial(model.forward, train_mode=True),
        partial(compute_loss, spec=model.spec, params=model.params),
        train_targets, val_targets, config)})


def _fit(params: ParamStore, forward, loss, train: LossTargets,
         val: LossTargets | None, config: TrainConfig) -> list[EpochRecord]:
    """Train ``params`` on ``loss(forward(batch.x), batch) -> (total,
    LossBreakdown)``, one recorded forward per batch. Each epoch's
    validation runs ``forward`` by :func:`forward_chunks` and ``loss`` once
    on the concatenated outputs: the loss of the chunk forwards, which is
    one forward's only up to ``INFER_CHUNK`` rows (an OCI decoder's output
    rounds by the row count)."""
    rng = np.random.default_rng(config.seed)
    state = AdamState()
    records: list[EpochRecord] = []
    for epoch in range(config.epochs):
        sums = np.zeros(len(_MEAN_COLUMNS))
        batches = _batches(len(train), config.batch_size, rng)
        for idx in batches:
            batch = train.take(idx)
            total, parts = loss(forward(batch.x), batch)
            params.zero_grads()
            backward(total)
            optimizer_step(params, config, state)
            sums += [getattr(parts, col) for col in _MEAN_COLUMNS]
        val_total = None
        if val is not None and len(val) > 0:
            with no_grad():
                val_total = loss(forward_chunks(
                    lambda rows: forward(val.x[rows]), len(val)), val)[1].total
        records.append(EpochRecord(epoch, *(sums / len(batches)),
                                   val_total=val_total))
    return records


def _stage_subset(model: SequentialModel, targets: LossTargets) -> np.ndarray:
    """Later stages' pixels: called cloudy by the first, and truly cloudy."""
    u_cloud = forward_chunks(
        lambda rows: model.stage_output(next(iter(SEQ_STAGES)), targets.x[rows]),
        len(targets)).value[:, 0]
    cloudy = targets.l_cloud > 0.0
    idx = np.flatnonzero((u_cloud >= model.spec.threshold) & cloudy)
    if idx.size == 0:
        idx = np.flatnonzero(cloudy)
    return idx


def _train_sequential(model: SequentialModel, train_targets: LossTargets,
                      config: TrainConfig, val_targets: LossTargets | None
                      ) -> TrainResult:
    histories: dict[str, list[EpochRecord]] = {}
    train, val = train_targets, val_targets
    for i, net in enumerate(SEQ_STAGES):
        if len(train) == 0:
            raise ConfigError(f"sequential stage {net} has no training pixels")
        histories[net] = _fit(model.subnet_params[net],
                              partial(model.stage_output, net),
                              partial(stage_loss, net, spec=model.spec,
                                      params=model.subnet_params[net]),
                              train, val, config)
        if i == 0:
            train = train_targets.take(_stage_subset(model, train_targets))
            if val_targets is not None and len(val_targets):
                val = val_targets.take(_stage_subset(model, val_targets))
    return TrainResult(histories=histories)
