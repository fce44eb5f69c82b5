"""Network construction and forward passes for every variant.

Every variant returns a :class:`ModelOutputs` of graph tensors: the mask
pair ``u_cloud``/``u_clear``, the phase pair ``u_liquid``/``u_ice`` (each
clamped into (0, 1)), the log10 thickness ``y_cot_hat``, and in train mode
the (n, 3) thickness-bin softmax ``aux_probs`` and the reconstruction
``x_recon``. Hierarchical variants gate the phase branch by the pre-clamp
cloud probability (soft) or by ``u_cloud >= threshold`` (hard, and always
at inference). MT-HCCAR's cross attention refines the regression hidden
vector theta1 with the auxiliary one theta2, per pixel i, unscaled:

    q_i = W_Q theta2_i   k_i = W_K theta1_i   v_i = W_V theta1_i
    out_i = W_z (row_softmax(q_i k_i^T) v_i) + theta1_i
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager, suppress
from contextvars import copy_context
from dataclasses import dataclass, fields
from functools import cache

import numpy as np

from .. import engine as E
from ..engine import Tensor, ParamStore
from ..errors import DimensionError
from .config import SEQ_STAGES, ArchitectureSpec


#: rows per forward in :func:`forward_chunks`
INFER_CHUNK = 2048


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


@cache
def _openblas():
    """numpy's OpenBLAS thread-count getter and setter, found on first use."""
    get, put = ctypes.CFUNCTYPE(ctypes.c_int), ctypes.CFUNCTYPE(None, ctypes.c_int)
    with suppress(OSError), open("/proc/self/maps") as f:
        for lib in sorted({line.split()[-1] for line in f if "openblas" in line.lower()}):
            for name in ("scipy_openblas_%s_num_threads64_",
                         "openblas_%s_num_threads64_", "openblas_%s_num_threads"):
                if hasattr(dll := ctypes.CDLL(lib), name % "get"):
                    return get((name % "get", dll)), put((name % "set", dll))
    return lambda: os.cpu_count() or 1, lambda threads: None  # BLAS on every CPU


def usable_cpus() -> int:
    """The chunks :func:`forward_chunks` runs at once: this process's CPUs
    over the live BLAS thread count, whose idle threads spin on them."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, cpus // _openblas()[0]())


#: [blocks inside :func:`one_blas_thread`, the count the first one saved]
_blas_holders = [0, 0]
_blas_lock = threading.Lock()


@contextmanager
def one_blas_thread():
    """Run the block at one BLAS thread. Blocks may overlap, in any threads:
    the first to enter saves the caller's count, the last to leave restores it."""
    get, put = _openblas()
    with _blas_lock:
        if not _blas_holders[0]:
            _blas_holders[1] = get()
            put(1)
        _blas_holders[0] += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders[0] -= 1
            if not _blas_holders[0]:
                put(_blas_holders[1])


def forward_chunks(forward, n: int):
    """``forward(rows)`` on each ``INFER_CHUNK``-row slice of ``range(n)``
    under :func:`engine.no_grad`, concatenated into a constant Tensor or
    :class:`ModelOutputs` of constants (None stays None); an empty range
    gets one empty call.

    This thread and ``usable_cpus() - 1`` more take chunks in increasing
    order, each in a copy of this context (so numpy's error state holds
    there), so peak memory is one chunk's forward per usable CPU. Every
    thread is joined before this returns or raises; an error is the lowest
    failing chunk's, the one a serial loop raises. Up to ``INFER_CHUNK``
    rows that is bitwise one forward; beyond, it is the chunk forwards'
    rows, which differ from one forward's by an ulp where BLAS picks its
    kernel by the row count, as for a product whose width is not a whole
    number of 16-column tiles (the OCI decoder's 243)."""
    starts = range(0, max(n, 1), INFER_CHUNK)
    parts, errors = [None] * len(starts), {}
    lock, chunks = threading.Lock(), iter(range(len(starts)))

    def run_chunks():             # in a copy of the caller's context
        with E.no_grad():
            while not errors:
                with lock:
                    i = next(chunks, None)
                if i is None:
                    return
                try:
                    parts[i] = forward(slice(starts[i], starts[i] + INFER_CHUNK))
                except BaseException as error:  # raised after the joins
                    errors[i] = error

    threads = [threading.Thread(target=copy_context().run, args=(run_chunks,))
               for _ in range(min(usable_cpus(), len(starts)) - 1)]
    for t in threads:
        t.start()
    try:
        copy_context().run(run_chunks)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[min(errors)]
    return _concat(parts)


def _concat(parts):
    if isinstance(parts[0], Tensor):
        return E.constant(np.concatenate([p.value for p in parts]))
    return ModelOutputs(**{
        f.name: None if getattr(parts[0], f.name) is None
        else _concat([getattr(p, f.name) for p in parts])
        for f in fields(ModelOutputs)})


def cross_attention(theta1, theta2, w_q, w_k, w_v, w_z) -> Tensor:
    """Attention-refined regression features (see the module docstring) of
    (n, d) ``theta1``/``theta2`` and four (d, d) matrices, Tensors or arrays.
    Scores, softmax and mixing are one :func:`engine.attention_mix` node;
    the projections and residual stay separate ops, so a tracer wrapping
    engine ops by name still sees the ``attn`` layer."""
    q = E.matmul(theta2, E.transpose(w_q))
    k = E.matmul(theta1, E.transpose(w_k))
    v = E.matmul(theta1, E.transpose(w_v))
    mixed = E.attention_mix(q, k, v)     # (n, d); (n, d, d) scores, no scaling
    return E.add(E.matmul(mixed, E.transpose(w_z)), theta1)


def _add_chain(ps: ParamStore, rng: np.random.Generator, prefix: str,
               widths) -> None:
    """Register dense layers ``prefix.0 ..`` mapping ``widths[i]`` to
    ``widths[i + 1]``, weights drawn from ``rng`` in layer order."""
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        ps.add_dense(f"{prefix}.{i}", rng, fan_in, fan_out)


def _chain(x: Tensor, params: ParamStore, prefix: str, n_layers: int,
           final_relu: bool) -> Tensor:
    """Apply dense layers ``prefix.0 .. prefix.{n-1}`` with ReLU between."""
    h = x
    for i in range(n_layers):
        h = E.dense(h, params[f"{prefix}.{i}.w"], params[f"{prefix}.{i}.b"])
        if i < n_layers - 1 or final_relu:
            h = E.relu(h)
    return h


def checked_input(X, input_dim: int) -> np.ndarray:
    """``X`` as a float64 array, which must be (n, ``input_dim``)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != input_dim:
        raise DimensionError(f"input has shape {X.shape}, expected (n, {input_dim})")
    return X


class Model:
    """A built variant: spec + parameters + forward."""

    def __init__(self, spec: ArchitectureSpec, params: ParamStore):
        self.spec = spec
        self.params = params

    def forward(self, X: np.ndarray, train_mode: bool = False) -> ModelOutputs:
        """Outputs on standardized features. Eval mode is inference: a hard
        gate, and no decoder or aux output layer, so no x_recon or aux_probs."""
        spec, ps = self.spec, self.params
        x = E.constant(checked_input(X, spec.input_dim))

        if spec.flags.single_hidden:
            h = E.relu(E.dense(x, ps["hidden.w"], ps["hidden.b"]))
            out5 = E.dense(h, ps["out.w"], ps["out.b"])
            probs = E.clamped_sigmoid(out5)
            return ModelOutputs(
                u_cloud=E.col(probs, 0), u_clear=E.col(probs, 1),
                u_liquid=E.col(probs, 2), u_ice=E.col(probs, 3),
                y_cot_hat=E.col(out5, 4))

        n_enc = len(spec.encoder_widths)
        z = _chain(x, ps, "encoder", n_enc, final_relu=True)
        x_recon = _chain(z, ps, "decoder", n_enc, final_relu=False) if train_mode else None

        if spec.flags.hierarchical:
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

        aux_probs = theta2 = None
        if spec.flags.aux_enabled and (train_mode or spec.flags.attention_enabled):
            # attention reads the aux hidden vector even when aux_probs is skipped
            theta2 = _chain(z, ps, "aux_head", len(spec.head_hidden), final_relu=True)
            if train_mode:
                aux_logits = E.dense(theta2, ps["aux_head_out.w"], ps["aux_head_out.b"])
                aux_probs = E.softmax_rows(aux_logits)

        theta1 = _chain(z, ps, "reg_head", len(spec.head_hidden), final_relu=True)
        if spec.flags.attention_enabled:
            theta_r = cross_attention(theta1, theta2, ps["attn.wq"],
                                      ps["attn.wk"], ps["attn.wv"], ps["attn.wz"])
        else:
            theta_r = theta1
        y_cot = E.col(E.dense(theta_r, ps["reg_head_out.w"], ps["reg_head_out.b"]), 0)

        return ModelOutputs(
            u_cloud=u_cloud, u_clear=u_clear, u_liquid=u_liquid, u_ice=u_ice,
            y_cot_hat=y_cot, aux_probs=aux_probs, x_recon=x_recon)


class SequentialModel(Model):
    """Three independent networks (mask, phase, COT) behind the Model API:
    each a trunk of the encoder widths plus a task head. ``params`` aliases
    the subnet tensors under their ``SEQ_STAGES`` names as prefixes;
    sequential training steps each subnet's own store."""

    def __init__(self, spec: ArchitectureSpec, merged: ParamStore,
                 subnet_params: dict[str, ParamStore]):
        super().__init__(spec, merged)
        self.subnet_params = subnet_params

    def stage_output(self, net: str, X: np.ndarray) -> Tensor:
        """One subnet's output on standardized features ``X``: an (n, 2)
        clamped-sigmoid pair for the mask and phase nets, the (n,) log10
        thickness for the COT net."""
        ps = self.subnet_params[net]
        h = _chain(E.constant(X), ps, "trunk", len(self.spec.encoder_widths),
                   final_relu=True)
        h = _chain(h, ps, "head", len(self.spec.head_hidden), final_relu=True)
        out = E.dense(h, ps["out.w"], ps["out.b"])
        return (E.col(out, 0) if SEQ_STAGES[net][1] is None
                else E.clamped_sigmoid(out))

    def forward(self, X: np.ndarray, train_mode: bool = False) -> ModelOutputs:
        X = checked_input(X, self.spec.input_dim)
        cols = []                  # in stage order, ModelOutputs' first fields
        for net, (_, labels) in SEQ_STAGES.items():
            out = self.stage_output(net, X)
            cols += [E.col(out, j) for j in range(len(labels))] if labels else [out]
        return ModelOutputs(*cols)


def build_model(spec: ArchitectureSpec, seed: int) -> Model:
    """Deterministically initialize a model (same spec + seed -> same values)."""
    rng = np.random.default_rng(seed)
    ps = ParamStore()
    if spec.flags.single_hidden:
        ps.add_dense("hidden", rng, spec.input_dim, spec.mlp_hidden)
        ps.add_dense("out", rng, spec.mlp_hidden, 5)
        return Model(spec, ps)

    widths = [spec.input_dim, *spec.encoder_widths]
    head_widths = [spec.encoder_widths[-1], *spec.head_hidden]
    if spec.flags.sequential:
        subnets = {}
        for net, (_, labels) in SEQ_STAGES.items():
            sub = subnets[net] = ParamStore()
            _add_chain(sub, rng, "trunk", widths)
            _add_chain(sub, rng, "head", head_widths)
            sub.add_dense("out", rng, head_widths[-1], len(labels) if labels else 1)
            ps.alias(net, sub)
        return SequentialModel(spec, ps, subnets)

    _add_chain(ps, rng, "encoder", widths)
    _add_chain(ps, rng, "decoder", widths[::-1])
    heads = ([("mask_head", 2), ("phase_head", 2)] if spec.flags.hierarchical
             else [("cls_head", 4)])
    if spec.flags.aux_enabled:
        heads.append(("aux_head", 3))
    for name, out_dim in heads + [("reg_head", 1)]:
        _add_chain(ps, rng, name, head_widths)
        ps.add_dense(f"{name}_out", rng, head_widths[-1], out_dim)
    if spec.flags.attention_enabled:
        d = spec.head_hidden[-1]
        for w_name in ("attn.wq", "attn.wk", "attn.wv", "attn.wz"):
            ps.add_weight(w_name, rng, d, d)
    return Model(spec, ps)
