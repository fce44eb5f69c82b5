"""Mini-batch training loop behavior and history records."""

import tracemalloc

import numpy as np
import pytest

from cloudmtl.data import Standardizer, generate_dataset, get_sensor
from cloudmtl.engine import (
    AdamState, TrainConfig, backward, no_grad, optimizer_step,
)
from cloudmtl.errors import ConfigError
from cloudmtl.models import (
    ArchitectureSpec, LossTargets, SequentialModel, build_model, compute_loss,
    history_csv, train_model,
)
from cloudmtl.models.config import SEQ_STAGES
from cloudmtl.models.losses import stage_loss
from cloudmtl.models.network import INFER_CHUNK
from cloudmtl.models.training import HISTORY_COLUMNS, EpochRecord, _stage_subset


@pytest.fixture(scope="module")
def targets():
    ds = generate_dataset(get_sensor("ABI"), 256, seed=21)
    feats = Standardizer.fit(ds.feature_matrix()).transform(ds.feature_matrix())
    spec = ArchitectureSpec(variant="MT-HCCAR", input_dim=feats.shape[1],
                            encoder_widths=(8, 4), head_hidden=(4,))
    return spec, LossTargets.from_dataset(ds, feats, spec.bins)


def clone_values(model):
    return {n: t.value.copy() for n, t in model.params.items()}


def test_zero_epochs_is_a_noop(targets):
    spec, tg = targets
    model = build_model(spec, seed=0)
    before = clone_values(model)
    result = train_model(model, tg, TrainConfig(epochs=0, batch_size=64, seed=0))
    assert result.histories["model"] == []
    for name, v in before.items():
        np.testing.assert_array_equal(model.params[name].value, v)


def test_training_is_bitwise_deterministic(targets):
    spec, tg = targets
    cfg = TrainConfig(lr=1e-3, epochs=3, batch_size=64, seed=7)
    runs = []
    for _ in range(2):
        m = build_model(spec, seed=1)
        train_model(m, tg, cfg)
        runs.append(clone_values(m))
    for name in runs[0]:
        np.testing.assert_array_equal(runs[0][name], runs[1][name])


def test_different_seed_diverges(targets):
    spec, tg = targets
    outs = []
    for seed in (1, 2):
        m = build_model(spec, seed=1)
        train_model(m, tg, TrainConfig(lr=1e-3, epochs=2, batch_size=64,
                                       seed=seed))
        outs.append(clone_values(m))
    assert any(not np.array_equal(outs[0][n], outs[1][n]) for n in outs[0])


def test_loss_decreases(targets):
    spec, tg = targets
    model = build_model(spec, seed=3)
    res = train_model(model, tg, TrainConfig(lr=1e-3, epochs=8, batch_size=64,
                                             seed=3))
    hist = res.histories["model"]
    assert hist[-1].total < hist[0].total


def test_validation_history_populated(targets):
    spec, tg = targets
    model = build_model(spec, seed=4)
    val = tg.take(np.arange(64))
    res = train_model(model, tg.take(np.arange(64, 256)),
                      TrainConfig(lr=1e-3, epochs=2, batch_size=64, seed=4),
                      val_targets=val)
    for rec in res.histories["model"]:
        assert rec.val_total is not None and np.isfinite(rec.val_total)


def test_empty_training_set_rejected(targets):
    spec, tg = targets
    model = build_model(spec, seed=5)
    with pytest.raises(ConfigError, match="empty"):
        train_model(model, tg.take(np.array([], dtype=np.int64)),
                    TrainConfig(epochs=1, batch_size=4, seed=0))


def test_history_csv_schema(targets):
    spec, tg = targets
    model = build_model(spec, seed=6)
    res = train_model(model, tg, TrainConfig(lr=1e-3, epochs=2, batch_size=128,
                                             seed=6))
    text = history_csv(res.histories["model"])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(HISTORY_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert len(first) == len(HISTORY_COLUMNS)
    # repr round trip: parsing a cell back gives the identical float
    assert float(first[7]) == res.histories["model"][0].total


def test_single_history_accessor(targets):
    spec, tg = targets
    model = build_model(spec, seed=7)
    res = train_model(model, tg, TrainConfig(lr=1e-3, epochs=1, batch_size=128,
                                             seed=7))
    assert res.history is res.histories["model"]


def test_sequential_pipeline_three_histories():
    ds = generate_dataset(get_sensor("ABI"), 200, seed=22)
    feats = Standardizer.fit(ds.feature_matrix()).transform(ds.feature_matrix())
    spec = ArchitectureSpec(variant="SEQ", input_dim=feats.shape[1],
                            encoder_widths=(8, 4), head_hidden=(4,))
    tg = LossTargets.from_dataset(ds, feats, spec.bins)
    model = build_model(spec, seed=8)
    res = train_model(model, tg, TrainConfig(lr=1e-3, epochs=2, batch_size=64,
                                             seed=8))
    assert set(res.histories) == {"mask_net", "phase_net", "cot_net"}
    for records in res.histories.values():
        assert len(records) == 2
    with pytest.raises(ConfigError):
        _ = res.history  # ambiguous for three histories
    # the merged store sees the trained subnet values (aliased tensors)
    sub = model.subnet_params["mask_net"]["trunk.0.w"]
    assert model.params["mask_net.trunk.0.w"] is sub


def test_sequential_history_rows_hold_only_their_stage():
    ds = generate_dataset(get_sensor("ABI"), 200, seed=23)
    feats = Standardizer.fit(ds.feature_matrix()).transform(ds.feature_matrix())
    spec = ArchitectureSpec(variant="SEQ", input_dim=feats.shape[1],
                            encoder_widths=(8, 4), head_hidden=(4,))
    tg = LossTargets.from_dataset(ds, feats, spec.bins)
    res = train_model(build_model(spec, seed=9), tg.take(np.arange(150)),
                      TrainConfig(lr=1e-3, epochs=2, batch_size=64, seed=9),
                      val_targets=tg.take(np.arange(150, 200)))
    stage_field = {"mask_net": "l_cmask", "phase_net": "l_cphase",
                   "cot_net": "l_reg"}
    for net, records in res.histories.items():
        others = {"l_cmask", "l_cphase", "l_reg"} - {stage_field[net]}
        for rec in records:
            assert rec.l_caux == rec.l_rec == 0.0
            assert all(getattr(rec, f) == 0.0 for f in others)
            assert rec.total == pytest.approx(
                getattr(rec, stage_field[net]) + rec.l_lasso, rel=1e-12)
            assert rec.val_total is not None and np.isfinite(rec.val_total)


# ------------------------------------------------ chunked no-grad forwards
# The references below are the loop as first written: one forward over the
# whole validation set (and training split, for SEQ's stage subset).

def unchunked_fit(params, loss_fn, train, val, config):
    rng = np.random.default_rng(config.seed)
    state = AdamState()
    records = []
    for epoch in range(config.epochs):
        sums = np.zeros(7)
        perm = rng.permutation(len(train))
        batches = [perm[i:i + config.batch_size]
                   for i in range(0, len(train), config.batch_size)]
        for idx in batches:
            total, parts = loss_fn(train.take(idx))
            params.zero_grads()
            backward(total)
            optimizer_step(params, config, state)
            sums += (parts.l_cmask, parts.l_cphase, parts.l_reg, parts.l_caux,
                     parts.l_rec, parts.l_lasso, parts.total)
        val_total = None
        if val is not None and len(val) > 0:
            with no_grad():
                val_total = loss_fn(val)[1].total
        records.append(EpochRecord(epoch, *(sums / len(batches)),
                                   val_total=val_total))
    return records


def unchunked_stage_subset(model, targets):
    with no_grad():
        u_cloud = model.stage_output(next(iter(SEQ_STAGES)),
                                     targets.x).value[:, 0]
    cloudy = targets.l_cloud > 0.0
    idx = np.flatnonzero((u_cloud >= model.spec.threshold) & cloudy)
    return idx if idx.size else np.flatnonzero(cloudy)


def unchunked_train(model, train, config, val):
    if not isinstance(model, SequentialModel):
        def loss_fn(batch):
            outputs = model.forward(batch.x, train_mode=True)
            return compute_loss(outputs, batch, model.spec, model.params)
        return {"model": unchunked_fit(model.params, loss_fn, train, val,
                                       config)}
    histories, train_all, val_all = {}, train, val
    for i, net in enumerate(SEQ_STAGES):
        def loss_fn(batch, net=net):
            out = model.stage_output(net, batch.x)
            return stage_loss(net, out, batch, model.spec,
                              model.subnet_params[net])
        histories[net] = unchunked_fit(model.subnet_params[net], loss_fn,
                                       train, val, config)
        if i == 0:
            train = train_all.take(unchunked_stage_subset(model, train_all))
            val = val_all.take(unchunked_stage_subset(model, val_all))
    return histories


@pytest.fixture(scope="module")
def big_val():
    """600 training and 5,000 validation ABI pixels (three chunks)."""
    ds = generate_dataset(get_sensor("ABI"), 5600, seed=24)
    std = Standardizer.fit(ds.feature_matrix()[:600])
    tg = LossTargets.from_dataset(ds, std.transform(ds.feature_matrix()),
                                  ArchitectureSpec(variant="SEQ", input_dim=1).bins)
    assert len(tg) - 600 > 2 * INFER_CHUNK
    return tg.take(np.arange(600)), tg.take(np.arange(600, 5600))


@pytest.mark.parametrize("variant", ["MT-HCCAR", "SEQ"])
def test_chunked_validation_is_bitwise_one_forward(big_val, variant):
    train, val = big_val
    spec = ArchitectureSpec(variant=variant, input_dim=train.x.shape[1])
    config = TrainConfig(lr=3e-3, epochs=2, batch_size=64, seed=5)
    model, ref = build_model(spec, seed=5), build_model(spec, seed=5)
    got = train_model(model, train, config, val).histories
    want = unchunked_train(ref, train, config, val)
    assert got == want
    for (name, a), (_, b) in zip(model.params.items(), ref.params.items()):
        assert a.value.tobytes() == b.value.tobytes(), name
    if variant == "SEQ":
        for targets in big_val:
            np.testing.assert_array_equal(
                _stage_subset(model, targets),
                unchunked_stage_subset(model, targets))


@pytest.mark.parametrize("variant", ["MT-HCCAR", "SEQ"])
def test_validation_memory_does_not_grow_with_rows(variant):
    ds = generate_dataset(get_sensor("ABI"), 8064, seed=25)
    feats = Standardizer.fit(ds.feature_matrix()).transform(ds.feature_matrix())
    spec = ArchitectureSpec(variant=variant, input_dim=feats.shape[1])
    tg = LossTargets.from_dataset(ds, feats, spec.bins)
    train = tg.take(np.arange(64))
    peaks = []
    for n in (4000, 8000):
        val = tg.take(np.arange(64, 64 + n))
        model = build_model(spec, seed=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_model(model, train, TrainConfig(lr=1e-3, epochs=1,
                                                  batch_size=64), val)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], \
        f"{peaks[0] / 2**20:.1f} MB at 4,000 rows, {peaks[1] / 2**20:.1f} at 8,000"
