"""Network construction and forward passes for every variant.

All variants produce a :class:`ModelOutputs` bundle of graph tensors
(:meth:`Model.infer` gives the inference-mode bundle, computed in chunks
without a graph):

* mask uncertainties ``u_cloud`` / ``u_clear`` (sigmoid, clamped into
  (0, 1) for log safety);
* phase uncertainties ``u_liquid`` / ``u_ice``;
* ``y_cot_hat`` regression output (log10 optical thickness);
* optional ``aux_probs`` (n, 3) thickness-bin softmax (exact softmax, so
  each row sums to 1; clamping happens inside the cross-entropy instead);
* optional ``x_recon`` decoder reconstruction.

Hierarchical variants multiply the latent representation by the cloud-mask
uncertainty before the phase head. The multiplicative gate uses the
*pre-clamp* sigmoid so that a exactly-saturated mask (0 or 1) gates the
branch identically in soft and hard modes; at inference the gate is always
the hard indicator ``u_cloud >= threshold``.

The cross-attention block refines the regression hidden vector theta1 with
the auxiliary hidden vector theta2, per pixel i:

    q_i = W_Q theta2_i   k_i = W_K theta1_i   v_i = W_V theta1_i
    S_i = q_i k_i^T      A_i = row_softmax(S_i)
    out_i = W_z (A_i v_i) + theta1_i

There is no 1/sqrt(d) scaling: S is the plain outer product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import engine as E
from ..engine import Tensor, ParamStore
from ..errors import DimensionError
from .config import ArchitectureSpec, VARIANT_SEQ, VARIANT_MLP


#: rows per forward in :meth:`Model.infer`
INFER_CHUNK = 2048

#: the outputs hard predictions read; :meth:`Model.infer` keeps only these
_INFER_FIELDS = ("u_cloud", "u_clear", "u_liquid", "u_ice", "y_cot_hat")


@dataclass
class ModelOutputs:
    """Per-pixel outputs of one forward pass (graph tensors)."""

    u_cloud: Tensor
    u_clear: Tensor
    u_liquid: Tensor
    u_ice: Tensor
    y_cot_hat: Tensor
    aux_probs: Tensor | None = None
    x_recon: Tensor | None = None


def cross_attention(theta1, theta2, w_q, w_k, w_v, w_z) -> Tensor:
    """Attention-refined regression features; see the module docstring.

    ``theta1``/``theta2`` are (n, d); the four matrices are (d, d). Accepts
    Tensors or plain arrays (arrays are wrapped as constants).
    """
    theta1, theta2, w_q, w_k, w_v, w_z = (
        t if isinstance(t, Tensor) else E.constant(t)
        for t in (theta1, theta2, w_q, w_k, w_v, w_z))
    d = theta1.value.shape[1]
    for name, w in (("w_q", w_q), ("w_k", w_k), ("w_v", w_v), ("w_z", w_z)):
        if w.value.shape != (d, d):
            raise DimensionError(
                f"{name} must be ({d}, {d}) to match the feature width, "
                f"got {w.value.shape}")
    if theta2.value.shape != theta1.value.shape:
        raise DimensionError(
            f"theta1 {theta1.value.shape} and theta2 {theta2.value.shape} differ")
    q = E.matmul(theta2, E.transpose(w_q))
    k = E.matmul(theta1, E.transpose(w_k))
    v = E.matmul(theta1, E.transpose(w_v))
    scores = E.outer_rows(q, k)          # (n, d, d), no scaling
    attn = E.softmax_rows(scores)        # row-normalized per pixel
    mixed = E.bmatvec(attn, v)           # (n, d)
    return E.add(E.matmul(mixed, E.transpose(w_z)), theta1)


def _chain(x: Tensor, params: ParamStore, prefix: str, n_layers: int,
           final_relu: bool) -> Tensor:
    """Apply dense layers ``prefix.0 .. prefix.{n-1}`` with ReLU between."""
    h = x
    for i in range(n_layers):
        h = E.dense(h, params[f"{prefix}.{i}.w"], params[f"{prefix}.{i}.b"])
        if i < n_layers - 1 or final_relu:
            h = E.relu(h)
    return h


class Model:
    """A built variant: spec + parameters + forward."""

    def __init__(self, spec: ArchitectureSpec, params: ParamStore):
        self.spec = spec
        self.params = params

    def param_count(self) -> int:
        return self.params.param_count()

    # ----- forward ------------------------------------------------------

    def _input(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.spec.input_dim:
            raise DimensionError(
                f"input has shape {X.shape}, expected (n, {self.spec.input_dim})")
        return X

    def forward(self, X: np.ndarray, train_mode: bool = False) -> ModelOutputs:
        spec, ps = self.spec, self.params
        x = E.constant(self._input(X))

        if spec.variant == VARIANT_MLP:
            h = E.relu(E.dense(x, ps["hidden.w"], ps["hidden.b"]))
            out5 = E.dense(h, ps["out.w"], ps["out.b"])
            probs = E.clamped_sigmoid(out5)
            return ModelOutputs(
                u_cloud=E.col(probs, 0), u_clear=E.col(probs, 1),
                u_liquid=E.col(probs, 2), u_ice=E.col(probs, 3),
                y_cot_hat=E.col(out5, 4))

        n_enc = len(spec.encoder_widths)
        z = _chain(x, ps, "encoder", n_enc, final_relu=True)
        x_recon = None
        if spec.has_decoder:
            x_recon = _chain(z, ps, "decoder", n_enc, final_relu=False)

        if spec.hierarchical:
            # The mask and phase pairs are mutually exclusive outcomes, so the
            # two-column heads are normalized with a row softmax; the loss
            # terms are then proper cross-entropies with no degenerate
            # all-ones optimum.  The clamp applies only to the copies used in
            # logarithms; the gate uses the raw probability.
            mask_h = _chain(z, ps, "mask_head", len(spec.head_hidden), final_relu=True)
            mask_logits = E.dense(mask_h, ps["mask_head_out.w"], ps["mask_head_out.b"])
            mask_raw = E.softmax_rows(mask_logits)
            mask_u = E.clamp(mask_raw, E.PROB_EPS, 1.0 - E.PROB_EPS)
            u_cloud, u_clear = E.col(mask_u, 0), E.col(mask_u, 1)
            if train_mode and spec.gating_mode == "soft":
                gate = E.col(mask_raw, 0)      # pre-clamp probability
            else:
                gate = E.constant(
                    (mask_raw.value[:, 0] >= spec.threshold).astype(np.float64))
            zp = E.mul(z, E.as_column(gate))
            phase_h = _chain(zp, ps, "phase_head", len(spec.head_hidden), final_relu=True)
            phase_logits = E.dense(phase_h, ps["phase_head_out.w"], ps["phase_head_out.b"])
            phase_u = E.clamp(E.softmax_rows(phase_logits), E.PROB_EPS, 1.0 - E.PROB_EPS)
            u_liquid, u_ice = E.col(phase_u, 0), E.col(phase_u, 1)
        else:
            cls_h = _chain(z, ps, "cls_head", len(spec.head_hidden), final_relu=True)
            cls_logits = E.dense(cls_h, ps["cls_head_out.w"], ps["cls_head_out.b"])
            cls_u = E.clamped_sigmoid(cls_logits)
            u_cloud, u_clear = E.col(cls_u, 0), E.col(cls_u, 1)
            u_liquid, u_ice = E.col(cls_u, 2), E.col(cls_u, 3)

        aux_probs = None
        theta2 = None
        if spec.aux_enabled:
            theta2 = _chain(z, ps, "aux_head", len(spec.head_hidden), final_relu=True)
            aux_logits = E.dense(theta2, ps["aux_head_out.w"], ps["aux_head_out.b"])
            aux_probs = E.softmax_rows(aux_logits)

        theta1 = _chain(z, ps, "reg_head", len(spec.head_hidden), final_relu=True)
        if spec.attention_enabled:
            theta_r = cross_attention(theta1, theta2, ps["attn.wq"],
                                      ps["attn.wk"], ps["attn.wv"], ps["attn.wz"])
        else:
            theta_r = theta1
        y_cot = E.col(E.dense(theta_r, ps["reg_head_out.w"], ps["reg_head_out.b"]), 0)

        return ModelOutputs(
            u_cloud=u_cloud, u_clear=u_clear, u_liquid=u_liquid, u_ice=u_ice,
            y_cot_hat=y_cot, aux_probs=aux_probs, x_recon=x_recon)

    def infer(self, X: np.ndarray) -> ModelOutputs:
        """Inference-mode outputs, ``INFER_CHUNK`` rows per forward.

        Each chunk runs ``forward(train_mode=False)`` under
        :func:`engine.no_grad`, so beyond the returned arrays peak memory is
        one chunk's forward however many rows ``X`` has. Only the five fields predictions read are kept,
        concatenated as constants; ``aux_probs`` and ``x_recon`` are None.

        Every forward op is row-independent, so up to ``INFER_CHUNK`` rows
        this is bitwise ``forward(X)``. Beyond that it is bitwise the
        concatenated per-chunk forwards. Those can differ from one forward
        over all rows by an ulp, because BLAS picks other kernels for
        products of about 32k rows and more; chunks of a few dozen rows
        can differ too, so the chunk size stays in the thousands.
        """
        X = self._input(X)
        chunks = []
        with E.no_grad():
            # an empty X still gets one (empty) forward and empty outputs
            for start in range(0, max(len(X), 1), INFER_CHUNK):
                out = self.forward(X[start:start + INFER_CHUNK])
                chunks.append([getattr(out, f).value for f in _INFER_FIELDS])
        return ModelOutputs(**{f: E.constant(np.concatenate(values))
                               for f, values in zip(_INFER_FIELDS, zip(*chunks))})


class SequentialModel(Model):
    """Three independent networks (mask, phase, COT) behind the Model API.

    Each subnet is a trunk (the encoder widths) plus a task head. The merged
    ``params`` store aliases the subnet tensors under ``mask_net.``/
    ``phase_net.``/``cot_net.`` prefixes, so checkpointing and gradient
    checking see one flat parameter list while sequential training steps each
    subnet store separately.
    """

    SUBNETS = ("mask_net", "phase_net", "cot_net")
    _OUT_DIMS = {"mask_net": 2, "phase_net": 2, "cot_net": 1}

    def __init__(self, spec: ArchitectureSpec, merged: ParamStore,
                 subnet_params: dict[str, ParamStore]):
        super().__init__(spec, merged)
        self.subnet_params = subnet_params

    @staticmethod
    def _build(spec: ArchitectureSpec, seed: int) -> "SequentialModel":
        rng = np.random.default_rng(seed)
        merged = ParamStore()
        subnets: dict[str, ParamStore] = {}
        for net in SequentialModel.SUBNETS:
            ps = ParamStore()
            widths = [spec.input_dim, *spec.encoder_widths]
            for i in range(len(spec.encoder_widths)):
                ps.add_dense(f"trunk.{i}", rng, widths[i], widths[i + 1])
            hw = [spec.latent_dim, *spec.head_hidden]
            for i in range(len(spec.head_hidden)):
                ps.add_dense(f"head.{i}", rng, hw[i], hw[i + 1])
            ps.add_dense("out", rng, hw[-1], SequentialModel._OUT_DIMS[net])
            subnets[net] = ps
            merged.alias(net, ps)
        return SequentialModel(spec, merged, subnets)

    def stage_output(self, net: str, X: np.ndarray) -> Tensor:
        """One subnet's output on standardized features ``X``.

        The mask and phase nets give an (n, 2) clamped-sigmoid pair, the COT
        net the (n,) log10 thickness. Sequential training calls this per
        stage, so it trains exactly the tensors ``forward`` reports.
        """
        ps = self.subnet_params[net]
        h = _chain(E.constant(X), ps, "trunk", len(self.spec.encoder_widths),
                   final_relu=True)
        h = _chain(h, ps, "head", len(self.spec.head_hidden), final_relu=True)
        out = E.dense(h, ps["out.w"], ps["out.b"])
        return E.col(out, 0) if net == "cot_net" else E.clamped_sigmoid(out)

    def forward(self, X: np.ndarray, train_mode: bool = False) -> ModelOutputs:
        X = self._input(X)
        mask_u = self.stage_output("mask_net", X)
        phase_u = self.stage_output("phase_net", X)
        return ModelOutputs(
            u_cloud=E.col(mask_u, 0), u_clear=E.col(mask_u, 1),
            u_liquid=E.col(phase_u, 0), u_ice=E.col(phase_u, 1),
            y_cot_hat=self.stage_output("cot_net", X))


def build_model(spec: ArchitectureSpec, seed: int) -> Model:
    """Deterministically initialize a model (same spec + seed -> same values)."""
    if spec.variant == VARIANT_SEQ:
        return SequentialModel._build(spec, seed)
    rng = np.random.default_rng(seed)
    ps = ParamStore()
    if spec.variant == VARIANT_MLP:
        ps.add_dense("hidden", rng, spec.input_dim, spec.mlp_hidden)
        ps.add_dense("out", rng, spec.mlp_hidden, 5)
        return Model(spec, ps)

    widths = [spec.input_dim, *spec.encoder_widths]
    for i in range(len(spec.encoder_widths)):
        ps.add_dense(f"encoder.{i}", rng, widths[i], widths[i + 1])
    if spec.has_decoder:
        rev = list(reversed(widths))
        for i in range(len(spec.encoder_widths)):
            ps.add_dense(f"decoder.{i}", rng, rev[i], rev[i + 1])

    def add_head(name: str, out_dim: int):
        hw = [spec.latent_dim, *spec.head_hidden]
        for i in range(len(spec.head_hidden)):
            ps.add_dense(f"{name}.{i}", rng, hw[i], hw[i + 1])
        ps.add_dense(f"{name}_out", rng, hw[-1], out_dim)

    if spec.hierarchical:
        add_head("mask_head", 2)
        add_head("phase_head", 2)
    else:
        add_head("cls_head", 4)
    if spec.aux_enabled:
        add_head("aux_head", 3)
    add_head("reg_head", 1)
    if spec.attention_enabled:
        d = spec.attention_dim
        for w_name in ("attn.wq", "attn.wk", "attn.wv", "attn.wz"):
            ps.add(w_name, E.glorot_uniform(rng, d, d))
    return Model(spec, ps)
