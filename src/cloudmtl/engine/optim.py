"""Adam with optional global-norm clipping, on a store's flat gradient.

    m <- b1*m + (1-b1)*g          v <- b2*v + (1-b2)*g^2
    p <- p - lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)

The moments are flat vectors in parameter order, updated in place term by
term in that order, so a step is bitwise a per-parameter loop's. The
clipping norm is summed parameter by parameter, as that order fixes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from ..errors import NumericError, StateError, check_fields, from_doc, require
from .params import ParamStore

#: most epochs a run may ask for; a larger count would never end
MAX_EPOCHS = 10**6


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings of the optimizer and train loop: frozen, and
    checked when built; a bad field raises :class:`ConfigError` naming it."""

    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float | None = None   # None disables clipping
    batch_size: int = 64
    epochs: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        require(("lr", self.lr > 0, "positive", self.lr),
                ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)", self.beta1),
                ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)", self.beta2),
                ("eps", self.eps > 0, "positive", self.eps),
                ("clip_norm", self.clip_norm is None or self.clip_norm > 0,
                 "positive or None", self.clip_norm),
                ("batch_size", self.batch_size >= 1, ">= 1", self.batch_size),
                ("epochs", 0 <= self.epochs <= MAX_EPOCHS,
                 f"in [0, MAX_EPOCHS = {MAX_EPOCHS}]", self.epochs),
                ("seed", self.seed >= 0, ">= 0", self.seed))

    #: the check run when built, which a frozen instance always passes again
    validate = __post_init__

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return from_doc(cls, d, "train")


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
