"""Variant construction, parameter counting, and forward-pass identities."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from cloudmtl import engine as E
from cloudmtl.errors import ConfigError, DimensionError
from cloudmtl.models import VARIANTS, ArchitectureSpec, build_model
from cloudmtl.models.network import cross_attention

WIDTHS = dict(input_dim=16, encoder_widths=(8, 4), head_hidden=(4,))


def small(variant, **kw):
    return ArchitectureSpec(variant=variant, **{**WIDTHS, **kw})


# ---------------------------------------------------------------- counting

def test_param_counts_exact_small_config():
    # encoder 16->8->4: 172; mirrored decoder: 184; each head stack from the
    # 4-wide latent through one 4-wide hidden layer costs 20 + (4+1)*out.
    expected = {
        "MT-CR": 172 + 184 + (20 + 20) + (20 + 5),
        "MT-HCR": 172 + 184 + 2 * (20 + 10) + (20 + 5),
        "MT-HCCR": 172 + 184 + 2 * (20 + 10) + (20 + 15) + (20 + 5),
        "MT-HCCAR": 172 + 184 + 2 * (20 + 10) + (20 + 15) + (20 + 5) + 4 * 16,
        "SEQ": 2 * (172 + 20 + 10) + (172 + 20 + 5),
        "MLP-BASELINE": 16 * 10 + 10 + 10 * 5 + 5,
    }
    for variant, want in expected.items():
        got = build_model(small(variant), seed=0).params.param_count()
        assert got == want, f"{variant}: {got} != {want}"


def test_param_counts_strictly_increase_along_complexity():
    counts = [build_model(small(v), seed=0).params.param_count()
              for v in ("MT-CR", "MT-HCR", "MT-HCCR", "MT-HCCAR")]
    assert counts == sorted(counts)
    assert len(set(counts)) == 4


def test_mlp_count_formula():
    for m, k in ((16, 5), (20, 5), (243, 5)):
        model = build_model(
            ArchitectureSpec(variant="MLP-BASELINE", input_dim=m), seed=0)
        assert model.params.param_count() == m * 10 + 10 + 10 * k + k


def test_attention_params_are_the_only_difference():
    hccr = set(build_model(small("MT-HCCR"), seed=0).params.names())
    hccar = set(build_model(small("MT-HCCAR"), seed=0).params.names())
    assert hccar - hccr == {"attn.wq", "attn.wk", "attn.wv", "attn.wz"}
    assert hccr <= hccar


# ---------------------------------------------------------------- build

def test_build_deterministic_by_seed():
    a = build_model(small("MT-HCCAR"), seed=5)
    b = build_model(small("MT-HCCAR"), seed=5)
    c = build_model(small("MT-HCCAR"), seed=6)
    for name in a.params.names():
        assert np.array_equal(a.params[name].value, b.params[name].value)
    assert any(not np.array_equal(a.params[n].value, c.params[n].value)
               for n in a.params.names())


def test_unknown_variant_rejected():
    with pytest.raises(ConfigError, match="variant"):
        ArchitectureSpec(variant="MT-XXL", input_dim=16)


def test_spec_validation():
    with pytest.raises(ConfigError):
        ArchitectureSpec(variant="MT-CR", input_dim=0)
    with pytest.raises(ConfigError):
        ArchitectureSpec(variant="MT-CR", input_dim=16, encoder_widths=(4, 8))
    with pytest.raises(ConfigError):
        ArchitectureSpec(variant="MT-CR", input_dim=16, gating_mode="maybe")
    with pytest.raises(ConfigError):
        ArchitectureSpec(variant="MT-CR", input_dim=16, threshold=1.5)
    with pytest.raises(ConfigError):
        ArchitectureSpec(variant="MT-CR", input_dim=16, bins=(0.0, 1.0))


@pytest.mark.parametrize("variant,width,named,peak_mb", [
    ("MT-HCCAR", {"head_hidden": (10**20,)}, "mask_head.0.w", 1),
    ("MLP-BASELINE", {"mlp_hidden": 10**20}, "hidden.w", 1),
    # 4 heads of 32 x 6000 and 6000 x out, with grads (about 14 MB) first
    ("MT-HCCAR", {"head_hidden": (6000,)}, "attn.wq", 32),
], ids=["head_hidden", "mlp_hidden", "attention"])
def test_build_model_bounds_its_size_before_allocating(variant, width, named,
                                                       peak_mb):
    spec = ArchitectureSpec(variant=variant, input_dim=16, **width)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"^{re.escape(named)} .*MAX_PARAMS"):
            build_model(spec, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_mb * 2**20


def test_spec_dict_round_trip():
    spec = small("MT-HCCAR", lasso_lambda=0.01, reg_norm="mean")
    assert ArchitectureSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ConfigError, match="unknown"):
        ArchitectureSpec.from_dict({**spec.to_dict(), "dropout": 0.5})


def test_input_width_checked():
    m = build_model(small("MT-CR"), seed=0)
    with pytest.raises(DimensionError):
        m.forward(np.zeros((3, 7)))


# ---------------------------------------------------------------- outputs

def test_output_shapes_and_flags():
    X = np.random.default_rng(0).normal(size=(9, 16))
    for variant, has_aux, has_recon in (
            ("SEQ", False, False), ("MT-CR", False, True),
            ("MT-HCR", False, True), ("MT-HCCR", True, True),
            ("MT-HCCAR", True, True), ("MLP-BASELINE", False, False)):
        model = build_model(small(variant), seed=1)
        eval_out = model.forward(X)
        assert eval_out.aux_probs is None and eval_out.x_recon is None
        out = model.forward(X, train_mode=True)
        for u in (out.u_cloud, out.u_clear, out.u_liquid, out.u_ice,
                  out.y_cot_hat):
            assert u.value.shape == (9,)
        assert (out.aux_probs is not None) == has_aux
        assert (out.x_recon is not None) == has_recon
        if has_aux:
            assert out.aux_probs.value.shape == (9, 3)
            np.testing.assert_allclose(out.aux_probs.value.sum(axis=1), 1.0,
                                       rtol=0, atol=1e-12)
        if has_recon:
            assert out.x_recon.value.shape == (9, 16)


def test_conditional_phase_flag():
    """Hierarchical variants and SEQ report phase given cloudy; flat ones not."""
    conditional = {v for v in VARIANTS if small(v).flags.conditional_phase}
    assert conditional == {"SEQ", "MT-HCR", "MT-HCCR", "MT-HCCAR"}


def test_hierarchical_mask_pair_is_complementary():
    X = np.random.default_rng(2).normal(size=(20, 16))
    out = build_model(small("MT-HCCAR"), seed=1).forward(X)
    np.testing.assert_allclose(out.u_cloud.value + out.u_clear.value, 1.0,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.u_liquid.value + out.u_ice.value, 1.0,
                               rtol=0, atol=1e-12)


def test_mlp_forward_matches_numpy():
    m = build_model(ArchitectureSpec(variant="MLP-BASELINE", input_dim=6),
                    seed=3)
    X = np.random.default_rng(4).normal(size=(7, 6))
    out = m.forward(X)
    h = np.maximum(X @ m.params["hidden.w"].value + m.params["hidden.b"].value, 0.0)
    o = h @ m.params["out.w"].value + m.params["out.b"].value
    np.testing.assert_array_equal(out.y_cot_hat.value, o[:, 4])
    np.testing.assert_allclose(out.u_cloud.value,
                               np.clip(1 / (1 + np.exp(-o[:, 0])),
                                       E.PROB_EPS, 1 - E.PROB_EPS),
                               rtol=0, atol=1e-15)


# ------------------------------------------------------------ attention

def test_attention_hand_case():
    """One pixel, d=2, identity projections.

    theta1 = (0, ln3), theta2 = (1, 1). Scores are the outer product
    q k^T = [[0, ln3], [0, ln3]]; both rows softmax to (1/4, 3/4), so the
    mixed vector is (3/4 ln3, 3/4 ln3) and the residual output is
    (3/4 ln3, 7/4 ln3).
    """
    ln3 = math.log(3.0)
    theta1 = np.array([[0.0, ln3]])
    theta2 = np.array([[1.0, 1.0]])
    eye = np.eye(2)
    out = cross_attention(theta1, theta2, eye, eye, eye, eye)
    np.testing.assert_allclose(out.value, [[0.75 * ln3, 1.75 * ln3]],
                               rtol=0, atol=1e-15)


def test_attention_zero_output_matrix_is_identity():
    rng = np.random.default_rng(5)
    theta1 = rng.normal(size=(11, 4))
    theta2 = rng.normal(size=(11, 4))
    out = cross_attention(theta1, theta2, rng.normal(size=(4, 4)),
                          rng.normal(size=(4, 4)), rng.normal(size=(4, 4)),
                          np.zeros((4, 4)))
    np.testing.assert_array_equal(out.value, theta1)


def test_attention_uniform_when_queries_vanish():
    """Zero W_Q makes every score row constant, so attention averages v."""
    rng = np.random.default_rng(6)
    theta1 = rng.normal(size=(5, 3))
    theta2 = rng.normal(size=(5, 3))
    wv = rng.normal(size=(3, 3))
    out = cross_attention(theta1, theta2, np.zeros((3, 3)),
                          rng.normal(size=(3, 3)), wv, np.eye(3))
    v = theta1 @ wv.T
    expected = np.repeat(v.mean(axis=1, keepdims=True), 3, axis=1) + theta1
    np.testing.assert_allclose(out.value, expected, rtol=0, atol=1e-12)


def test_attention_matches_numpy_reference():
    rng = np.random.default_rng(7)
    n, d = 6, 5
    theta1, theta2 = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    wq, wk, wv, wz = (rng.normal(size=(d, d)) for _ in range(4))
    out = cross_attention(theta1, theta2, wq, wk, wv, wz)
    q, k, v = theta2 @ wq.T, theta1 @ wk.T, theta1 @ wv.T
    scores = np.einsum("ni,nj->nij", q, k)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    mixed = np.einsum("nij,nj->ni", attn, v)
    np.testing.assert_allclose(out.value, mixed @ wz.T + theta1,
                               rtol=1e-12, atol=1e-12)


def test_attention_shape_validation():
    theta = np.zeros((2, 3))
    with pytest.raises(DimensionError):
        cross_attention(theta, theta, np.zeros((2, 2)), np.zeros((3, 3)),
                        np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        cross_attention(theta, np.zeros((2, 4)), *(np.zeros((3, 3)),) * 4)


# ------------------------------------------------------------ identities

def test_zero_attention_collapses_to_plain_variant():
    """With W_z = 0 the attended model's regression equals the un-attended
    variant built from the same shared parameter values."""
    X = np.random.default_rng(8).normal(size=(13, 16))
    hccar = build_model(small("MT-HCCAR"), seed=9)
    hccar.params["attn.wz"].value[:] = 0.0
    hccr = build_model(small("MT-HCCR"), seed=0)
    shared = {n: hccar.params[n].value.copy() for n in hccr.params.names()}
    hccr.params.load_values(shared)
    a, b = hccar.forward(X, train_mode=True), hccr.forward(X, train_mode=True)
    np.testing.assert_array_equal(a.y_cot_hat.value, b.y_cot_hat.value)
    np.testing.assert_array_equal(a.u_cloud.value, b.u_cloud.value)
    np.testing.assert_array_equal(a.aux_probs.value, b.aux_probs.value)


def test_saturated_gate_equal_in_soft_and_hard_modes():
    """When the mask probability is exactly 0 or 1 the soft multiplicative
    gate and the hard threshold gate act identically."""
    X = np.random.default_rng(10).normal(size=(8, 16))
    outs = []
    for mode in ("soft", "hard"):
        m = build_model(small("MT-HCCAR", gating_mode=mode), seed=11)
        # enormous bias difference saturates the mask softmax to exactly 1
        m.params["mask_head_out.w"].value[:] = 0.0
        m.params["mask_head_out.b"].value[:] = (100.0, 0.0)
        outs.append(m.forward(X, train_mode=True))
    np.testing.assert_array_equal(outs[0].u_liquid.value, outs[1].u_liquid.value)
    np.testing.assert_array_equal(outs[0].y_cot_hat.value, outs[1].y_cot_hat.value)


def test_hard_gate_zeroes_phase_branch_input():
    """A mask probability of exactly zero blanks the gated latent, so the
    phase head sees the zero vector and outputs its bias response."""
    m = build_model(small("MT-HCR", gating_mode="hard"), seed=12)
    m.params["mask_head_out.w"].value[:] = 0.0
    m.params["mask_head_out.b"].value[:] = (-100.0, 0.0)   # never cloudy
    X = np.random.default_rng(13).normal(size=(6, 16))
    out = m.forward(X, train_mode=True)
    assert np.ptp(out.u_liquid.value) == 0.0  # identical rows: gated to zero


def test_seq_subnets_are_independent():
    m = build_model(small("SEQ"), seed=14)
    assert set(m.subnet_params) == {"mask_net", "phase_net", "cot_net"}
    merged = set(m.params.names())
    for net, ps in m.subnet_params.items():
        for name in ps.names():
            assert f"{net}.{name}" in merged
    X = np.random.default_rng(15).normal(size=(4, 16))
    out = m.forward(X)
    # flat sigmoid pairs: mask columns are not forced complementary
    assert out.aux_probs is None and out.x_recon is None


def test_seq_forward_is_stage_output():
    m = build_model(small("SEQ"), seed=16)
    X = np.random.default_rng(17).normal(size=(5, 16))
    out = m.forward(X)
    mask, phase = m.stage_output("mask_net", X), m.stage_output("phase_net", X)
    for got, want in ((out.u_cloud, E.col(mask, 0)), (out.u_clear, E.col(mask, 1)),
                      (out.u_liquid, E.col(phase, 0)), (out.u_ice, E.col(phase, 1)),
                      (out.y_cot_hat, m.stage_output("cot_net", X))):
        assert got.value.tobytes() == want.value.tobytes()
