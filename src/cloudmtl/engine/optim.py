"""Adaptive-moment gradient descent with optional global-norm clipping.

The update follows the standard bias-corrected first/second moment scheme
(beta1=0.9, beta2=0.999, eps=1e-8 by default):

    m <- b1*m + (1-b1)*g          v <- b2*v + (1-b2)*g^2
    m_hat = m / (1 - b1^t)        v_hat = v / (1 - b2^t)
    p <- p - lr * m_hat / (sqrt(v_hat) + eps)

so the very first step moves each parameter by -lr * sign(g) up to the eps
correction. The step reads one gradient vector: the store's flat gradient
vector (see :meth:`ParamStore.flat_grad`), in parameter order. The moments
live in :class:`AdamState` as flat vectors of the same layout and are
updated in place, each term computed by the formulas above in their order;
the global norm for clipping is still summed parameter by parameter, since
another summation order would change the clipped step. The arithmetic is
elementwise, so it is bitwise that of a per-parameter loop; the step is
deterministic given (params, grads, state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, asdict

import numpy as np

from ..errors import ConfigError, NumericError, StateError
from .params import ParamStore


@dataclass
class TrainConfig:
    """Optimization hyperparameters shared by the optimizer and train loop."""

    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float | None = None   # None disables clipping
    batch_size: int = 64
    epochs: int = 500
    seed: int = 0

    def validate(self) -> None:
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0) or not (0.0 <= self.beta2 < 1.0):
            raise ConfigError(
                f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ConfigError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown training fields: {sorted(extra)}")
        cfg = cls(**d)
        cfg.validate()
        return cfg


@dataclass
class AdamState:
    """Adam's first/second moments plus the step counter.

    ``m`` and ``v`` are flat vectors with one entry per parameter element,
    in the store's parameter order, updated in place by each step. They
    stay None until the first step allocates them, so ``AdamState()`` is a
    fresh state for any store.
    """

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step: int = 0


def global_grad_norm(params: ParamStore) -> float:
    """L2 norm of the concatenation of every parameter gradient."""
    total = 0.0
    for _, t in params.items():
        g = t.grad
        if g is not None:
            total += float(np.sum(g * g))
    return math.sqrt(total)


def optimizer_step(params: ParamStore, config: TrainConfig, state: AdamState) -> None:
    """Apply one Adam step using each parameter's accumulated grad.

    A missing grad counts as zeros. Each ``p.value`` is rebound to a new
    array; the old array is never written. Raises :class:`NumericError`
    naming the first offending parameter if any gradient contains a
    non-finite entry, and :class:`StateError` if ``state`` holds moments for
    a store of another size. All-zero gradients leave parameters bitwise
    unchanged (aside from the step counter advancing).
    """
    config.validate()
    g = params.flat_grad()
    if not np.isfinite(g).all():
        for name, t in params.items():
            if not np.all(np.isfinite(t.grad)):
                raise NumericError(f"non-finite gradient for parameter {name!r}")
    if state.m is None:
        state.m = np.zeros_like(g)
        state.v = np.zeros_like(g)
    elif state.m.shape != g.shape:
        raise StateError(
            f"AdamState holds moments for {state.m.size} entries, "
            f"the parameters have {g.size}")

    if config.clip_norm is not None:
        norm = global_grad_norm(params)
        if norm > config.clip_norm:
            g = g * (config.clip_norm / norm)

    state.step += 1
    t_step = state.step
    bc1 = 1.0 - config.beta1 ** t_step
    bc2 = 1.0 - config.beta2 ** t_step
    # The update above, term by term in its own order, with the moments
    # updated in place and one work vector; ``g`` is the store's live
    # gradient vector, so it is only read.
    m, v = state.m, state.v
    buf = (1.0 - config.beta1) * g
    np.multiply(m, config.beta1, out=m)
    np.add(m, buf, out=m)                  # m = b1*m + (1-b1)*g
    np.multiply(g, g, out=buf)
    np.multiply(buf, 1.0 - config.beta2, out=buf)
    np.multiply(v, config.beta2, out=v)
    np.add(v, buf, out=v)                  # v = b2*v + (1-b2)*g^2
    update = np.divide(m, bc1)
    np.multiply(update, config.lr, out=update)  # lr * m_hat
    np.divide(v, bc2, out=buf)
    np.sqrt(buf, out=buf)
    np.add(buf, config.eps, out=buf)       # sqrt(v_hat) + eps
    np.divide(update, buf, out=update)
    for p, step in zip(params.tensors(), params.views(update)):
        p.value = p.value - step
