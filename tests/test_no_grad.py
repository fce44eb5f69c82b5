"""Graph-free evaluation: ``engine.no_grad``, eval-mode ``Model.forward``
(inference), ``forward_chunks`` over it, ``predict`` and ``evaluate_model``."""

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from cloudmtl import engine as E
from cloudmtl import workflow
from cloudmtl.data import Standardizer, generate_dataset, get_sensor
from cloudmtl.models import (
    VARIANTS, ArchitectureSpec, LossTargets, build_model, compute_loss,
    network, predict, predictions_from_outputs,
)
from cloudmtl.errors import DimensionError
from cloudmtl.metrics import evaluate_predictions
from cloudmtl.models.network import INFER_CHUNK, forward_chunks

ABI_DIM, OCI_DIM = 16, 243
FIELDS = ("u_cloud", "u_clear", "u_liquid", "u_ice", "y_cot_hat")


def model_for(variant, input_dim=ABI_DIM, seed=3):
    return build_model(ArchitectureSpec(variant=variant, input_dim=input_dim),
                       seed=seed)


def features(n, input_dim=ABI_DIM, seed=0):
    return np.random.default_rng(seed).standard_normal((n, input_dim))


def values(outputs, fields=FIELDS):
    return {f: getattr(outputs, f).value for f in fields}


def assert_bitwise(a: dict, b: dict):
    assert a.keys() == b.keys()
    for k in a:
        assert a[k].shape == b[k].shape, k
        assert a[k].tobytes() == b[k].tobytes(), k


def recorded(t):
    return t.parents != () or t.vjp is not None


def infer(model, X):
    """Eval-mode forwards over ``X``'s rows by ``forward_chunks``."""
    return forward_chunks(lambda rows: model.forward(X[rows]), len(X))


# ---------------------------------------------------------------- no_grad

@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("train_mode", [False, True])
def test_no_grad_values_bitwise_equal_and_unrecorded(variant, train_mode):
    model, X = model_for(variant), features(300)
    ref = model.forward(X, train_mode=train_mode)
    with E.no_grad():
        out = model.forward(X, train_mode=train_mode)
    names = [f.name for f in dataclasses.fields(ref) if getattr(ref, f.name) is not None]
    assert_bitwise(values(ref, names), values(out, names))
    assert all(recorded(getattr(ref, f)) for f in names)
    assert not any(recorded(getattr(out, f)) for f in names)


def test_no_grad_ops_build_leaves():
    a = E.constant(np.array([[1.0, -2.0], [0.5, 3.0]]))
    with E.no_grad():
        outs = [E.add(a, 1.0), E.relu(a), E.clamp(a, 0.0, 1.0), E.absval(a),
                E.matmul(a, a), E.softmax_rows(a), E.l1_norm([a, a])]
    for t in outs:
        assert t.parents == () and t.vjp is None and t.grad is None


def test_no_grad_mode_restored_after_nesting_and_exception():
    a = E.constant(np.ones(3))
    with E.no_grad():
        with E.no_grad():
            assert not recorded(E.add(a, a))
        assert not recorded(E.add(a, a))
    assert recorded(E.add(a, a))
    with pytest.raises(RuntimeError):
        with E.no_grad():
            raise RuntimeError("boom")
    assert recorded(E.add(a, a))


def test_training_after_infer_gets_the_same_gradients():
    spec = ArchitectureSpec(variant="MT-HCCAR", input_dim=ABI_DIM)
    ds = generate_dataset(get_sensor("ABI"), 64, seed=5)
    feats = Standardizer.fit(ds.feature_matrix()).transform(ds.feature_matrix())
    targets = LossTargets.from_dataset(ds, feats, spec.bins)
    grads = []
    for warm in (False, True):
        model = build_model(spec, seed=3)
        if warm:
            X = features(2 * INFER_CHUNK + 1)
            model.forward(X)
            infer(model, X)
            predict(model, X)
        model.params.zero_grads()
        total, _ = compute_loss(model.forward(targets.x, train_mode=True),
                                targets, spec, model.params)
        E.backward(total)
        grads.append({name: t.grad.copy() for name, t in model.params.items()})
    assert any(np.any(g != 0) for g in grads[1].values())
    assert_bitwise(*grads)


# ---------------------------------------------------------------- infer

@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("input_dim", [ABI_DIM, OCI_DIM])
def test_infer_is_forward_within_one_chunk(variant, input_dim):
    # eval mode is inference: no aux_probs or x_recon, recorded or not
    model = model_for(variant, input_dim)
    for n in (0, 1, 37, INFER_CHUNK):
        X = features(n, input_dim, seed=n)
        ref = model.forward(X)
        out = infer(model, X)
        for o in (ref, out):
            assert o.aux_probs is None and o.x_recon is None
        assert not any(recorded(getattr(out, f)) for f in FIELDS)
        assert_bitwise(values(ref), values(out))
        assert_bitwise(dataclasses.asdict(predict(model, X)),
                       dataclasses.asdict(predictions_from_outputs(ref, model.spec)))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_infer_runs_only_the_layers_predictions_read(variant, monkeypatch):
    # the decoder and the aux output layer feed only the losses; the aux
    # hidden layers stay where attention reads them
    model = model_for(variant)
    layer_of = {id(t): name.rsplit(".", 1)[0] for name, t in model.params.items()}
    read, dense = set(), E.dense

    def spy(x, w, b):
        read.add(layer_of[id(w)])
        return dense(x, w, b)

    monkeypatch.setattr(E, "dense", spy)
    model.forward(features(10))
    layers = {name.rsplit(".", 1)[0] for name in model.params.names()
              if name.endswith(".b")}
    skipped = {layer for layer in layers
               if layer.startswith("decoder.") or layer == "aux_head_out"
               or (layer.startswith("aux_head.")
                   and not model.spec.flags.attention_enabled)}
    assert read == layers - skipped


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_infer_is_concatenated_chunk_forwards(variant):
    model, X = model_for(variant), features(3 * INFER_CHUNK + 5)
    chunks = [values(model.forward(X[i:i + INFER_CHUNK], train_mode=False))
              for i in range(0, len(X), INFER_CHUNK)]
    want = {f: np.concatenate([c[f] for c in chunks]) for f in FIELDS}
    assert_bitwise(want, values(infer(model, X)))
    outputs = network.ModelOutputs(**{f: E.constant(want[f]) for f in FIELDS})
    assert_bitwise(dataclasses.asdict(predict(model, X)), dataclasses.asdict(
        predictions_from_outputs(outputs, model.spec)))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_infer_matches_one_large_forward(variant):
    # Past about 32k rows BLAS may pick other kernels for one tall product,
    # so scores can move by an ulp; decisions must not.
    model, X = model_for(variant), features(40_000)
    with E.no_grad():
        single = predictions_from_outputs(model.forward(X), model.spec)
    chunked = predict(model, X)
    np.testing.assert_array_equal(chunked.label, single.label)
    np.testing.assert_array_equal(chunked.cloudy, single.cloudy)
    for f in ("cot_raw", "score_cloud", "score_clear", "score_liquid",
              "score_ice"):
        np.testing.assert_allclose(getattr(chunked, f), getattr(single, f),
                                   rtol=0, atol=1e-12, err_msg=f)


def test_infer_peak_memory_is_bounded():
    # One unchunked recording forward over these rows would need about 3 GB.
    model, X = model_for("MT-HCCAR"), features(200_000)
    tracemalloc.start()
    try:
        infer(model, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


# ----------------------------------------------------------- evaluate_model

@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_evaluate_model_is_whole_scene_standardize_and_predict(variant):
    # the last chunk is a part one, so each chunk boundary is crossed
    ds = generate_dataset(get_sensor("ABI"), 2 * INFER_CHUNK + 37, seed=31)
    std = Standardizer.fit(ds.feature_matrix()[:500])
    model = model_for(variant)
    pred, report = workflow.evaluate_model(model, std, ds)
    want = predict(model, std.transform(ds.feature_matrix()))
    assert_bitwise(dataclasses.asdict(pred), dataclasses.asdict(want))
    assert report.to_json() == evaluate_predictions(want, ds).to_json()


def test_evaluate_model_peak_memory_is_bounded():
    # a whole-scene feature matrix and its standardized copy took 12.8 MB
    ds = generate_dataset(get_sensor("ABI"), 50_000, seed=32)
    std = Standardizer.fit(ds.feature_matrix())
    model = model_for("MT-HCCAR")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        workflow.evaluate_model(model, std, ds)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_predict_rejects_inputs_that_are_not_rows_of_features(monkeypatch):
    model, calls = model_for("MT-HCCAR"), []
    forward = model.forward
    monkeypatch.setattr(model, "forward", lambda X: calls.append(X) or forward(X))
    for X in (np.float64(1.0), np.zeros(ABI_DIM), np.zeros((3, ABI_DIM + 1))):
        with pytest.raises(DimensionError, match="expected"):
            predict(model, X)
    assert calls == []


# ------------------------------------------------- one chunk loop per call

def _scorers():
    ds = generate_dataset(get_sensor("ABI"), 3 * INFER_CHUNK + 5, seed=33)
    std = Standardizer.fit(ds.feature_matrix())
    return {"evaluate_model": lambda m: workflow.evaluate_model(m, std, ds),
            "predict": lambda m: predict(m, std.transform(ds.feature_matrix()))}


@pytest.mark.parametrize("scorer", ["evaluate_model", "predict"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_scoring_enters_no_grad_once_per_worker(scorer, cpus, monkeypatch):
    # one chunk loop per call: no chunk runs a loop (and a no_grad) of its own
    entered, no_grad = [], E.no_grad
    monkeypatch.setattr(E, "no_grad", lambda: entered.append(1) or no_grad())
    monkeypatch.setattr(network, "usable_cpus", lambda: cpus)
    _scorers()[scorer](model_for("MT-HCCAR"))
    assert len(entered) == cpus


def test_evaluate_model_builds_predictions_once_in_the_calling_thread(monkeypatch):
    # a speed probe on predictions_from_outputs must not land in chunk threads
    threads, build = [], workflow.predictions_from_outputs

    def spy(outputs, spec):
        threads.append(threading.current_thread())
        return build(outputs, spec)

    monkeypatch.setattr(workflow, "predictions_from_outputs", spy)
    monkeypatch.setattr(network, "usable_cpus", lambda: 2)
    _scorers()["evaluate_model"](model_for("MT-HCCAR"))
    assert threads == [threading.current_thread()]
