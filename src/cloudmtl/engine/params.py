"""Named parameter collection with deterministic initialization.

A :class:`ParamStore` owns the leaf tensors of a model. Names are unique,
insertion-ordered, and flat (dotted paths by convention, e.g.
``encoder.0.w``). A parameter's role comes from its shape: weights are 2-D
and biases 1-D, so weight-only penalties (lasso) read the 2-D ones.

Every ``grad`` is a view of the store's one flat gradient vector (see
:meth:`ParamStore.flat_grad`), the only gradient the optimizer reads.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from ..errors import ConfigError, StateError
from .tensor import Tensor

#: most values a store holds: 256 MiB, about 1 GiB with grads and Adam moments
MAX_PARAMS = 2**25


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init on [-a, a] with a = sqrt(6 / (fan_in + fan_out))."""
    if fan_in <= 0 or fan_out <= 0:
        raise ConfigError(f"fan_in/fan_out must be positive, got {fan_in}, {fan_out}")
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out)).astype(np.float64)


class ParamStore:
    """Ordered mapping name -> leaf Tensor."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        # built by flat_grad, dropped when a parameter is registered
        self._grad_flat: np.ndarray | None = None
        self._grad_views: list[np.ndarray] = []

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise StateError(f"parameter {name!r} already registered")
        t = Tensor(np.asarray(value, dtype=np.float64), name=name)
        t.grad = np.zeros_like(t.value)
        self._params[name] = t
        self._grad_flat = None
        return t

    def add_weight(self, name: str, rng: np.random.Generator,
                   fan_in: int, fan_out: int) -> Tensor:
        """Register a glorot weight; one that takes the store past
        ``MAX_PARAMS`` values raises :class:`ConfigError` before drawing."""
        if self.param_count() + fan_in * fan_out > MAX_PARAMS:
            raise ConfigError(f"{name} ({fan_in} x {fan_out}) takes the model "
                              f"past MAX_PARAMS = {MAX_PARAMS} values")
        return self.add(name, glorot_uniform(rng, fan_in, fan_out))

    def add_dense(self, name: str, rng: np.random.Generator,
                  fan_in: int, fan_out: int) -> tuple[Tensor, Tensor]:
        """Register a weight (glorot) + zero bias pair under name.w / name.b."""
        w = self.add_weight(f"{name}.w", rng, fan_in, fan_out)
        b = self.add(f"{name}.b", np.zeros(fan_out))
        return w, b

    def alias(self, prefix: str, store: "ParamStore") -> None:
        """Register every tensor of ``store`` as ``prefix.<name>``.

        The tensors are shared, not copied. A full name that is already
        registered raises before anything is added.
        """
        full = {f"{prefix}.{name}": name for name in store._params}
        taken = sorted(n for n in full if n in self._params)
        if taken:
            raise StateError(f"parameters {taken} already registered")
        for n, name in full.items():
            self._params[n] = store._params[name]
        self._grad_flat = None

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise StateError(f"unknown parameter {name!r}") from None

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def weight_tensors(self) -> list[Tensor]:
        """The 2-D parameters (the lasso penalty's domain)."""
        return [t for t in self._params.values() if t.value.ndim == 2]

    def param_count(self) -> int:
        return sum(t.value.size for t in self._params.values())

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each parameter's view of ``flat``, a vector in parameter order."""
        views, offset = [], 0
        for t in self._params.values():
            size = t.value.size
            views.append(flat[offset:offset + size].reshape(t.value.shape))
            offset += size
        return views

    def flat_grad(self) -> np.ndarray:
        """All gradients as one vector in parameter order, built on first use.

        A ``grad`` that is not its view of the vector (set by hand, None, or
        bound by another store sharing the tensor) is copied into the view,
        None as zeros, and the view is bound in its place.
        """
        if self._grad_flat is None:
            self._grad_flat = np.zeros(self.param_count())
            self._grad_views = self.views(self._grad_flat)
        for t, view in zip(self._params.values(), self._grad_views):
            if t.grad is not view:
                view[...] = 0.0 if t.grad is None else t.grad
                t.grad = view
        return self._grad_flat

    def zero_grads(self) -> None:
        """Zero every gradient with one fill of the flat gradient vector."""
        self.flat_grad().fill(0.0)

    def clone_values(self) -> dict[str, np.ndarray]:
        return {n: t.value.copy() for n, t in self._params.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Overwrite parameter values in place; names must match exactly."""
        missing = set(self._params) - set(values)
        extra = set(values) - set(self._params)
        if missing or extra:
            raise StateError(
                f"parameter name mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for n, v in values.items():
            arr = np.asarray(v, dtype=np.float64)
            if arr.shape != self._params[n].value.shape:
                raise StateError(
                    f"shape mismatch for {n!r}: store has "
                    f"{self._params[n].value.shape}, got {arr.shape}")
            self._params[n].value = arr.copy()
