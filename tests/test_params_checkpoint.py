"""Parameter store registration, init determinism, and checkpoint files."""

import numpy as np
import pytest

from cloudmtl.engine import ParamStore, glorot_uniform, load_checkpoint, save_checkpoint
from cloudmtl.errors import NumericError, StateError


def test_duplicate_name_rejected():
    ps = ParamStore()
    ps.add("w", np.zeros(2))
    with pytest.raises(StateError):
        ps.add("w", np.zeros(2))


def test_unknown_name_rejected():
    ps = ParamStore()
    with pytest.raises(StateError):
        ps["missing"]


def test_add_dense_registers_weight_and_bias():
    rng = np.random.default_rng(0)
    ps = ParamStore()
    ps.add_dense("layer", rng, 4, 3)
    w, b = ps["layer.w"], ps["layer.b"]
    assert w.value.shape == (4, 3)
    assert b.value.shape == (3,)
    assert np.array_equal(b.value, np.zeros(3))
    assert ps.param_count() == 4 * 3 + 3


def test_bias_excluded_from_weight_tensors():
    rng = np.random.default_rng(0)
    ps = ParamStore()
    ps.add_dense("layer", rng, 4, 3)
    names = {t.name for t in ps.weight_tensors()}
    assert "layer.w" in names
    assert "layer.b" not in names


def test_glorot_bounds_and_determinism():
    a = glorot_uniform(np.random.default_rng(7), 64, 32)
    b = glorot_uniform(np.random.default_rng(7), 64, 32)
    assert np.array_equal(a, b)
    limit = np.sqrt(6.0 / (64 + 32))
    assert np.all(np.abs(a) <= limit)
    assert a.shape == (64, 32)


def test_checkpoint_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    ps = ParamStore()
    ps.add_dense("enc", rng, 5, 4)
    ps.add("scale", rng.normal(size=(3,)))
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, ps, architecture={"variant": "X"},
                    config={"lr": 1e-5}, extras={"note": "t"})
    doc = load_checkpoint(path)
    assert doc["architecture"] == {"variant": "X"}
    assert doc["config"] == {"lr": 1e-5}
    assert doc["extras"] == {"note": "t"}
    for name in ("enc.w", "enc.b", "scale"):
        assert np.array_equal(doc["values"][name], ps[name].value), name


def test_checkpoint_file_is_deterministic(tmp_path):
    rng = np.random.default_rng(2)
    ps = ParamStore()
    ps.add_dense("enc", rng, 3, 2)
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_checkpoint(p1, ps, architecture={}, config={}, extras={})
    save_checkpoint(p2, ps, architecture={}, config={}, extras={})
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_rejects_non_finite(tmp_path):
    ps = ParamStore()
    ps.add("w", np.array([1.0, np.inf]))
    with pytest.raises(NumericError):
        save_checkpoint(str(tmp_path / "bad.json"), ps,
                        architecture={}, config={}, extras={})


def test_load_values_validates_names_and_shapes():
    rng = np.random.default_rng(3)
    ps = ParamStore()
    ps.add_dense("enc", rng, 3, 2)
    good = ps.clone_values()
    with pytest.raises(StateError):
        ps.load_values({k: v for k, v in good.items() if k != "enc.b"})
    bad = dict(good)
    bad["enc.w"] = np.zeros((2, 3))
    with pytest.raises(StateError):
        ps.load_values(bad)
    ps.load_values(good)  # unchanged set loads fine


def test_alias_shares_tensors_and_bias_flags():
    rng = np.random.default_rng(4)
    sub = ParamStore()
    sub.add_dense("layer", rng, 3, 2)
    merged = ParamStore()
    merged.add("own", np.ones(2))
    merged.alias("net", sub)
    assert merged.names() == ["own", "net.layer.w", "net.layer.b"]
    assert merged["net.layer.w"] is sub["layer.w"]
    assert merged["net.layer.b"] is sub["layer.b"]
    assert merged.is_bias("net.layer.b") and not merged.is_bias("net.layer.w")
    assert [t.name for t in merged.weight_tensors()] == ["own", "layer.w"]


def test_alias_rejects_a_duplicate_full_name():
    sub = ParamStore()
    sub.add("a", np.zeros(1))
    sub.add("w", np.zeros(1))
    merged = ParamStore()
    merged.add("net.w", np.zeros(1))
    with pytest.raises(StateError, match="net.w"):
        merged.alias("net", sub)
    assert merged.names() == ["net.w"]  # nothing half-registered
