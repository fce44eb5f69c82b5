"""Mini-batch training loop behavior and history records."""

import numpy as np
import pytest

from cloudmtl.data import Standardizer, generate_dataset, get_sensor
from cloudmtl.engine import TrainConfig
from cloudmtl.errors import ConfigError
from cloudmtl.models import (
    ArchitectureSpec, LossTargets, build_model, history_csv, train_model,
)
from cloudmtl.models.training import HISTORY_COLUMNS


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
