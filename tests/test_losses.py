"""Composite-loss values: hand cases, sum identities, masking, lasso."""

import math

import numpy as np
import pytest

from cloudmtl import engine as E
from cloudmtl.data import Standardizer, generate_dataset, get_sensor
from cloudmtl.engine import finite_diff_check
from cloudmtl.models import (
    ArchitectureSpec, LossTargets, build_model, compute_loss,
)
from cloudmtl.models.losses import stage_loss
from cloudmtl.models.network import ModelOutputs

EPS = 1e-7  # probability clamp width used by the loss


def hand_outputs(u_cloud, u_clear, u_liquid, u_ice, y_hat,
                 aux=None, recon=None):
    as_t = lambda v: E.constant(np.asarray(v, dtype=np.float64))
    return ModelOutputs(
        u_cloud=as_t(u_cloud), u_clear=as_t(u_clear),
        u_liquid=as_t(u_liquid), u_ice=as_t(u_ice), y_cot_hat=as_t(y_hat),
        aux_probs=None if aux is None else as_t(aux),
        x_recon=None if recon is None else as_t(recon))


def hand_targets(l_cloud, l_liquid, y_cot, x=None, aux=None):
    l_cloud = np.asarray(l_cloud, dtype=np.float64)
    l_liquid = np.asarray(l_liquid, dtype=np.float64)
    cloudy = l_cloud > 0.5
    l_ice = np.where(cloudy, 1.0 - l_liquid, 0.0)
    n = len(l_cloud)
    return LossTargets(
        x=np.zeros((n, 2)) if x is None else np.asarray(x, dtype=np.float64),
        l_cloud=l_cloud, l_clear=1.0 - l_cloud,
        l_liquid=l_liquid, l_ice=l_ice,
        y_cot=np.asarray(y_cot, dtype=np.float64),
        aux_onehot=np.zeros((n, 3)) if aux is None else np.asarray(aux, float))


HSPEC = ArchitectureSpec(variant="MT-HCR", input_dim=2,
                         encoder_widths=(2,), head_hidden=(2,))
FSPEC = ArchitectureSpec(variant="MT-CR", input_dim=2,
                         encoder_widths=(2,), head_hidden=(2,))


def test_hierarchical_mask_hand_case():
    """One confidently-correct cloudy pixel: only the clamp is left.

    u_cloud = 1 clamps to 1 - eps, so l_cmask = -log(1 - eps) and the
    phase term is -(1-eps) * 2 log(1-eps) (joint path probability)."""
    out = hand_outputs([1.0], [0.0], [1.0], [0.0], [2.0])
    tg = hand_targets([1.0], [1.0], [2.0])
    _, br = compute_loss(out, tg, HSPEC)
    c = 1.0 - EPS
    assert br.l_cmask == pytest.approx(-math.log(c), rel=0, abs=1e-18)
    assert br.l_cphase == pytest.approx(-c * 2.0 * math.log(c), rel=1e-9)
    assert br.l_reg == 0.0
    assert br.total == pytest.approx(br.l_cmask + br.l_cphase, abs=1e-18)


def test_flat_mask_hand_case():
    """Four flat sigmoid outputs at 0.5 give 2 log 2 per label pair."""
    out = hand_outputs([0.5], [0.5], [0.5], [0.5], [0.0])
    tg = hand_targets([1.0], [1.0], [0.0])
    _, br = compute_loss(out, tg, FSPEC)
    assert br.l_cmask == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
    assert br.l_cphase == pytest.approx(2.0 * math.log(2.0), rel=1e-15)


def test_hierarchical_phase_weighting():
    """An uncertain mask (u_cloud = 0.5) scales the phase penalty and puts
    the joint probability 0.5 * u_phase inside the log."""
    out = hand_outputs([0.5], [0.5], [0.8], [0.2], [1.0])
    tg = hand_targets([1.0], [1.0], [1.0])
    _, br = compute_loss(out, tg, HSPEC)
    expected = -(0.5 * math.log(0.5 * 0.8))
    assert br.l_cphase == pytest.approx(expected, rel=1e-14)


def test_regression_sum_and_mean_forms():
    y_hat = [1.0, 5.0, -2.0]
    tg = hand_targets([1.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.5, 0.0, -1.0])
    out = hand_outputs([1, 0, 1], [0, 1, 0], [1, 0, 0], [0, 0, 1], y_hat)
    _, br = compute_loss(out, tg, HSPEC)
    assert br.l_reg == pytest.approx(abs(1.0 - 0.5) + abs(-2.0 + 1.0), rel=1e-15)

    mean_spec = ArchitectureSpec(variant="MT-HCR", input_dim=2,
                                 encoder_widths=(2,), head_hidden=(2,),
                                 reg_norm="mean")
    out2 = hand_outputs([1, 0, 1], [0, 1, 0], [1, 0, 0], [0, 0, 1], y_hat)
    _, br2 = compute_loss(out2, tg, mean_spec)
    assert br2.l_reg == pytest.approx(br.l_reg / 2.0, rel=1e-15)


def test_clear_pixels_never_reach_regression_or_aux():
    tg = hand_targets([1.0, 0.0], [1.0, 0.0], [1.0, 0.0],
                      aux=[[0, 1, 0], [0, 0, 0]])
    a = hand_outputs([1, 0], [0, 1], [1, 0], [0, 1], [1.0, 0.0],
                     aux=[[0.2, 0.6, 0.2], [0.1, 0.1, 0.8]])
    b = hand_outputs([1, 0], [0, 1], [1, 0], [0, 1], [1.0, 999.0],
                     aux=[[0.2, 0.6, 0.2], [0.98, 0.01, 0.01]])
    spec = ArchitectureSpec(variant="MT-HCCR", input_dim=2,
                            encoder_widths=(2,), head_hidden=(2,))
    _, ba = compute_loss(a, tg, spec)
    _, bb = compute_loss(b, tg, spec)
    assert ba.l_reg == bb.l_reg
    assert ba.l_caux == bb.l_caux
    assert ba.l_caux == pytest.approx(-math.log(0.6), rel=1e-14)


def test_exact_zero_components():
    """lambda = 0, perfect reconstruction and perfect regression give exact
    0.0 components, not merely small ones."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(4, 2))
    y = rng.normal(size=4)
    spec = ArchitectureSpec(variant="MT-CR", input_dim=2,
                            encoder_widths=(2,), head_hidden=(2,),
                            lasso_lambda=0.0)
    model = build_model(spec, seed=1)
    out = hand_outputs([.5] * 4, [.5] * 4, [.5] * 4, [.5] * 4, y, recon=X)
    tg = hand_targets([1.0] * 4, [1.0] * 4, y, x=X)
    _, br = compute_loss(out, tg, spec, params=model.params)
    assert br.l_rec == 0.0
    assert br.l_reg == 0.0
    assert br.l_lasso == 0.0


def test_lasso_covers_weights_only():
    spec = ArchitectureSpec(variant="MT-CR", input_dim=2,
                            encoder_widths=(2,), head_hidden=(2,),
                            lasso_lambda=0.5)
    model = build_model(spec, seed=2)
    out = hand_outputs([.5], [.5], [.5], [.5], [0.0])
    tg = hand_targets([1.0], [1.0], [0.0])
    _, before = compute_loss(out, tg, spec, params=model.params)
    expected = 0.5 * sum(np.abs(w.value).sum()
                         for w in model.params.weight_tensors())
    assert before.l_lasso == pytest.approx(expected, rel=1e-15)

    model.params["encoder.0.b"].value[:] += 100.0   # bias: no effect
    out2 = hand_outputs([.5], [.5], [.5], [.5], [0.0])
    _, after = compute_loss(out2, tg, spec, params=model.params)
    assert after.l_lasso == before.l_lasso

    w0 = model.params["encoder.0.w"].value.flat[0]
    model.params["encoder.0.w"].value.flat[0] = abs(w0) + 2.0  # |w| grows by 2
    out3 = hand_outputs([.5], [.5], [.5], [.5], [0.0])
    _, moved = compute_loss(out3, tg, spec, params=model.params)
    assert moved.l_lasso - before.l_lasso == pytest.approx(1.0, rel=1e-9)


def test_component_sum_identity_on_random_batches():
    """total == l_hc + l_car + l_rec + l_lasso with the sub-sums consistent,
    across 100 random model/batch draws."""
    ds = generate_dataset(get_sensor("ABI"), 600, seed=9)
    feats = Standardizer.fit(ds.feature_matrix()).transform(ds.feature_matrix())
    variants = ("SEQ", "MT-CR", "MT-HCR", "MT-HCCR", "MT-HCCAR", "MLP-BASELINE")
    rng = np.random.default_rng(10)
    for trial in range(100):
        variant = variants[trial % len(variants)]
        spec = ArchitectureSpec(variant=variant, input_dim=feats.shape[1],
                                encoder_widths=(8, 4), head_hidden=(4,),
                                lasso_lambda=10.0 ** rng.uniform(-6, -2))
        model = build_model(spec, seed=trial)
        idx = rng.choice(len(ds), size=32, replace=False)
        tg = LossTargets.from_dataset(ds, feats, spec.bins).take(idx)
        out = model.forward(feats[idx], train_mode=True)
        total, br = compute_loss(out, tg, spec, params=model.params)
        assert br.total == float(total.value)
        assert br.l_hc == pytest.approx(br.l_cmask + br.l_cphase, abs=1e-12)
        assert br.l_car == pytest.approx(br.l_reg + br.l_caux, abs=1e-12)
        assert br.total == pytest.approx(
            br.l_hc + br.l_car + br.l_rec + br.l_lasso, abs=1e-12)
        assert all(math.isfinite(v) for v in br.to_dict().values())


def test_shape_mismatch_rejected():
    from cloudmtl.errors import DimensionError
    out = hand_outputs([1, 0], [0, 1], [1, 0], [0, 1], [0.0, 0.0])
    tg = hand_targets([1.0], [1.0], [0.0])
    with pytest.raises(DimensionError):
        compute_loss(out, tg, HSPEC)


def test_gradient_reaches_all_components():
    """Backward from the total populates gradients in every parameter."""
    ds = generate_dataset(get_sensor("ABI"), 64, seed=11)
    feats = Standardizer.fit(ds.feature_matrix()).transform(ds.feature_matrix())
    spec = ArchitectureSpec(variant="MT-HCCAR", input_dim=feats.shape[1],
                            encoder_widths=(8, 4), head_hidden=(4,))
    model = build_model(spec, seed=12)
    tg = LossTargets.from_dataset(ds, feats, spec.bins)
    out = model.forward(feats, train_mode=True)
    total, _ = compute_loss(out, tg, spec, params=model.params)
    E.backward(total)
    for name, t in model.params.items():
        assert t.grad is not None, name
        assert np.any(t.grad != 0.0) or "attn" in name, name


def _np_bce_mean(u, y):
    u = np.clip(u, EPS, 1.0 - EPS)
    return -np.mean(y * np.log(u) + (1.0 - y) * np.log(1.0 - u))


@pytest.mark.parametrize("net", ["mask_net", "phase_net", "cot_net"])
@pytest.mark.parametrize("reg_norm", ["sum", "mean"])
def test_stage_loss_matches_numpy(net, reg_norm):
    """Each SEQ stage's loss is its own term plus the lasso over its own
    subnet; every other component is exactly 0.0."""
    ds = generate_dataset(get_sensor("ABI"), 48, seed=13)
    feats = Standardizer.fit(ds.feature_matrix()).transform(ds.feature_matrix())
    spec = ArchitectureSpec(variant="SEQ", input_dim=feats.shape[1],
                            encoder_widths=(8, 4), head_hidden=(4,),
                            lasso_lambda=1e-3, reg_norm=reg_norm)
    model = build_model(spec, seed=14)
    tg = LossTargets.from_dataset(ds, feats, spec.bins)
    if net == "cot_net":
        tg = tg.take(np.flatnonzero(tg.l_cloud > 0.0))
    ps = model.subnet_params[net]
    out = model.stage_output(net, tg.x)
    total, br = stage_loss(net, out, tg, spec, ps)

    u = out.value
    if net == "mask_net":
        term = _np_bce_mean(u[:, 0], tg.l_cloud) + _np_bce_mean(u[:, 1], tg.l_clear)
    elif net == "phase_net":
        term = _np_bce_mean(u[:, 0], tg.l_liquid) + _np_bce_mean(u[:, 1], tg.l_ice)
    else:
        term = np.abs(u - tg.y_cot).sum()
        if reg_norm == "mean":
            term /= len(tg)
    lasso = 1e-3 * sum(np.abs(w.value).sum() for w in ps.weight_tensors())
    field = {"mask_net": "l_cmask", "phase_net": "l_cphase",
             "cot_net": "l_reg"}[net]
    parts = br.to_dict()
    assert parts[field] == pytest.approx(term, rel=1e-12)
    assert br.l_lasso == pytest.approx(lasso, rel=1e-12)
    assert br.total == float(total.value)
    assert br.total == pytest.approx(term + lasso, rel=1e-12)
    for name in ("l_cmask", "l_cphase", "l_reg", "l_caux", "l_rec"):
        if name != field:
            assert parts[name] == 0.0, name
    assert br.l_hc == br.l_cmask + br.l_cphase
    assert br.l_car == br.l_reg + br.l_caux


@pytest.mark.parametrize("net", ["mask_net", "phase_net", "cot_net"])
def test_stage_loss_gradient_matches_finite_differences(net):
    """SEQ trains each stage on ``stage_loss`` of ``stage_output``; its
    backward pass, lasso included, agrees with central differences over the
    stage's own subnet."""
    ds = generate_dataset(get_sensor("ABI"), 48, seed=13)
    feats = Standardizer.fit(ds.feature_matrix()).transform(ds.feature_matrix())
    spec = ArchitectureSpec(variant="SEQ", input_dim=feats.shape[1],
                            encoder_widths=(8, 4), head_hidden=(4,),
                            lasso_lambda=1e-3)
    model = build_model(spec, seed=14)
    tg = LossTargets.from_dataset(ds, feats, spec.bins)
    if net != "mask_net":     # the later stages train on cloudy pixels
        tg = tg.take(np.flatnonzero(tg.l_cloud > 0.0))

    def loss_fn(ps):
        return stage_loss(net, model.stage_output(net, tg.x), tg, spec, ps)[0]

    report = finite_diff_check(loss_fn, model.subnet_params[net])
    assert report.passed and report.checked > 0, report.summary()
