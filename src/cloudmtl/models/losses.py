"""Composite training loss and its per-component breakdown.

The total is always the literal four-term sum

    total = l_hc + l_car + l_rec + l_lasso

with ``l_hc = l_cmask + l_cphase`` and ``l_car = l_reg + l_caux``:

* ``l_cmask``  cloud-mask classification. Hierarchical variants use the
  two-output cross entropy ``-mean(l_cloud*log(u_cloud) +
  l_clear*log(u_clear))`` (the labels are complementary); flat variants use
  full binary cross entropy on both mask outputs.
* ``l_cphase`` phase classification. Hierarchical variants weight each
  phase term by the cloud-mask uncertainty and take the log of the joint
  path probability: ``-mean(u_cloud*l_liq*log(u_cloud*u_liq) +
  u_cloud*l_ice*log(u_cloud*u_ice))``. Flat variants use binary cross
  entropy on both phase outputs.
* ``l_reg``    absolute error of the regression output, summed over
  truly-cloudy pixels (``reg_norm="mean"`` divides by their count).
* ``l_caux``   thickness-bin cross entropy, summed over truly-cloudy pixels.
* ``l_rec``    reconstruction MSE over every pixel and input feature.
* ``l_lasso``  lasso_lambda times the L1 norm of all 2-D (weight)
  parameters; the 1-D biases are left out.

Components a variant lacks (no decoder, no aux head) are an exact 0.0.
Every probability entering a logarithm is clamped to ``[1e-7, 1 - 1e-7]``.
``stage_loss`` builds each SEQ stage's loss from the same parts.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, fields

import numpy as np

from .. import engine as E
from ..data.dataset import LABEL_ICE, LABEL_LIQUID
from ..engine import Tensor, ParamStore
from ..errors import DimensionError
from .config import SEQ_STAGES, ArchitectureSpec
from .network import ModelOutputs
from .inference import thickness_onehot


@dataclass
class LossTargets:
    """Supervision for one batch, as plain float64 arrays."""

    x: np.ndarray            # (n, M) standardized features (recon target)
    l_cloud: np.ndarray      # (n,) 1.0 where truly cloudy
    l_clear: np.ndarray
    l_liquid: np.ndarray
    l_ice: np.ndarray
    y_cot: np.ndarray        # (n,) log10 COT, 0.0 filler where clear
    aux_onehot: np.ndarray   # (n, 3) one-hot thickness bin, zero rows if clear

    @classmethod
    def from_dataset(cls, ds, features: np.ndarray,
                     bins: tuple[float, float, float, float]) -> "LossTargets":
        cloudy = ds.cloudy_mask()
        return cls(
            x=np.asarray(features, dtype=np.float64),
            l_cloud=cloudy.astype(np.float64), l_clear=(~cloudy).astype(np.float64),
            l_liquid=(ds.label == LABEL_LIQUID).astype(np.float64),
            l_ice=(ds.label == LABEL_ICE).astype(np.float64),
            y_cot=np.nan_to_num(ds.cot_log10, nan=0.0),
            aux_onehot=thickness_onehot(ds.cot_log10, cloudy, bins),
        )

    def take(self, idx: np.ndarray) -> "LossTargets":
        return LossTargets(**{f.name: getattr(self, f.name)[idx]
                              for f in fields(self)})

    def __len__(self) -> int:
        return int(self.l_cloud.shape[0])


@dataclass
class LossBreakdown:
    """Float values of every component for one evaluation."""

    l_cmask: float
    l_cphase: float
    l_hc: float
    l_reg: float
    l_caux: float
    l_car: float
    l_rec: float
    l_lasso: float
    total: float

    def to_dict(self) -> dict:
        return asdict(self)


def _clip_prob(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` clamped to the log-safe range, and the clamp's VJP mask."""
    lo, hi = E.PROB_EPS, 1.0 - E.PROB_EPS
    return np.clip(x, lo, hi), (x >= lo) & (x <= hi)


def _bce_pair(u: Tensor, labels: np.ndarray) -> Tensor:
    """Per-pixel ``-(labels*log(p) + (1-labels)*log(1-p))``, ``p`` the
    log-safe clamp of ``u``: one node, bitwise its clamp/log/mul chain."""
    p, mask = _clip_prob(u.value)
    neg_labels = 1.0 - labels
    q = 1.0 - p
    value = -(labels * np.log(p) + neg_labels * np.log(q))

    def vjp(g):
        g = -g
        return (((g * labels) / p - (g * neg_labels) / q) * mask,)

    return Tensor(value, (u,), vjp)


def _hierarchical_ce(outputs: ModelOutputs, targets: LossTargets
                     ) -> tuple[Tensor, float, float]:
    """``l_hc = l_cmask + l_cphase`` of the hierarchical variants, with the
    float values of both: one node, bitwise the clamp/log/mul chain of the
    module docstring's formulas."""
    parents = (outputs.u_cloud, outputs.u_clear, outputs.u_liquid, outputs.u_ice)
    (uc, m_c), (ucl, m_cl), (ul, m_l), (ui, m_i) = (
        _clip_prob(t.value) for t in parents)
    t = targets
    l_cmask = -(t.l_cloud * np.log(uc) + t.l_clear * np.log(ucl)).mean()
    # joint path probability inside the log, mask uncertainty outside
    liq_w, liq_p = uc * t.l_liquid, uc * ul
    ice_w, ice_p = uc * t.l_ice, uc * ui
    log_liq, log_ice = np.log(liq_p), np.log(ice_p)
    l_cphase = -(liq_w * log_liq + ice_w * log_ice).mean()
    n = uc.size

    def vjp(g):
        g = -g / n
        d_liq_p = (g * liq_w) / liq_p
        d_ice_p = (g * ice_w) / ice_p
        # the chain's order: mask, liquid label and joint, ice label and joint
        d_uc = ((((g * t.l_cloud) / uc + (g * log_liq) * t.l_liquid)
                  + d_liq_p * ul) + (g * log_ice) * t.l_ice) + d_ice_p * ui
        return (d_uc * m_c, ((g * t.l_clear) / ucl) * m_cl,
                (d_liq_p * uc) * m_l, (d_ice_p * uc) * m_i)

    return Tensor(l_cmask + l_cphase, parents, vjp), float(l_cmask), float(l_cphase)


def cloudy_abs_error(y_hat: Tensor, targets: LossTargets,
                     reg_norm: str) -> Tensor:
    """Absolute thickness error summed over truly-cloudy pixels, divided by
    their count if ``reg_norm="mean"``."""
    abs_err = E.absval(E.sub(y_hat, E.constant(targets.y_cot)))
    err = E.reduce_sum(E.mul(abs_err, E.constant(targets.l_cloud)))
    if reg_norm == "mean":
        err = E.div(err, E.constant(max(float(targets.l_cloud.sum()), 1.0)))
    return err


def lasso_penalty(params: ParamStore | None, lam: float) -> Tensor:
    """``lam`` times the L1 norm of every 2-D (weight) parameter; an
    exact 0.0 if ``params`` is None, ``lam`` is 0 or there are no weights."""
    weights = params.weight_tensors() if params is not None and lam > 0 else []
    if not weights:
        return E.constant(0.0)
    return E.mul(lam, E.l1_norm(weights))


def compute_loss(outputs: ModelOutputs, targets: LossTargets,
                 spec: ArchitectureSpec,
                 params: ParamStore | None = None) -> tuple[Tensor, LossBreakdown]:
    """The composite loss node and its breakdown; the lasso runs over
    ``params``, and is 0.0 when it is None."""
    n = len(targets)
    if outputs.u_cloud.value.shape != (n,):
        raise DimensionError(
            f"outputs cover {outputs.u_cloud.value.shape} pixels, targets {n}")
    zero = E.constant(0.0)

    if spec.flags.hierarchical:
        l_hc, cmask, cphase = _hierarchical_ce(outputs, targets)
    else:
        mask_ce = E.add(_bce_pair(outputs.u_cloud, targets.l_cloud),
                        _bce_pair(outputs.u_clear, targets.l_clear))
        l_cmask = E.reduce_mean(mask_ce)
        phase_ce = E.add(_bce_pair(outputs.u_liquid, targets.l_liquid),
                         _bce_pair(outputs.u_ice, targets.l_ice))
        l_cphase = E.reduce_mean(phase_ce)
        l_hc = E.add(l_cmask, l_cphase)
        cmask, cphase = float(l_cmask.value), float(l_cphase.value)

    l_reg = cloudy_abs_error(outputs.y_cot_hat, targets, spec.reg_norm)

    if outputs.aux_probs is not None:
        logp = E.log(E.clamp(outputs.aux_probs, E.PROB_EPS, 1.0 - E.PROB_EPS))
        weighted = E.mul(E.constant(targets.aux_onehot), logp)
        # aux_onehot rows are zero for clear pixels, so the truly-cloudy
        # restriction is already encoded in the targets
        l_caux = E.neg(E.reduce_sum(weighted))
    else:
        l_caux = zero

    if outputs.x_recon is not None:
        diff = E.sub(outputs.x_recon, E.constant(targets.x))
        l_rec = E.reduce_mean(E.mul(diff, diff))
    else:
        l_rec = zero

    l_lasso = lasso_penalty(params, spec.lasso_lambda)

    l_car = E.add(l_reg, l_caux)
    total = E.add(E.add(l_hc, l_car), E.add(l_rec, l_lasso))

    breakdown = LossBreakdown(
        l_cmask=cmask, l_cphase=cphase,
        l_hc=float(l_hc.value), l_reg=float(l_reg.value),
        l_caux=float(l_caux.value), l_car=float(l_car.value),
        l_rec=float(l_rec.value), l_lasso=float(l_lasso.value),
        total=float(total.value))
    return total, breakdown


def stage_loss(net: str, out: Tensor, targets: LossTargets,
               spec: ArchitectureSpec,
               params: ParamStore | None) -> tuple[Tensor, LossBreakdown]:
    """Loss of one SEQ stage on its subnet's output ``out``: two mean binary
    cross entropies (mask, phase stages) or :func:`cloudy_abs_error` (COT),
    plus the lasso over ``params``. Other breakdown fields are 0.0."""
    field, labels = SEQ_STAGES[net]
    if labels is None:
        term = cloudy_abs_error(out, targets, spec.reg_norm)
    else:
        term = E.add(*(E.reduce_mean(_bce_pair(E.col(out, j),
                                               getattr(targets, attr)))
                       for j, attr in enumerate(labels)))
    l_lasso = lasso_penalty(params, spec.lasso_lambda)
    total = E.add(term, l_lasso)
    parts = dict(l_cmask=0.0, l_cphase=0.0, l_reg=0.0, l_caux=0.0, l_rec=0.0)
    parts[field] = float(term.value)
    breakdown = LossBreakdown(
        **parts, l_hc=parts["l_cmask"] + parts["l_cphase"],
        l_car=parts["l_reg"] + parts["l_caux"],
        l_lasso=float(l_lasso.value), total=float(total.value))
    return total, breakdown
