"""Named parameter collection with deterministic initialization.

A :class:`ParamStore` owns the leaf tensors of a model. Names are unique,
insertion-ordered, and flat (dotted paths by convention, e.g.
``encoder.0.w``). Bias parameters are flagged at registration so weight-only
penalties (lasso) can skip them without parsing names.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from ..errors import ConfigError, StateError
from .tensor import Tensor


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init on [-a, a] with a = sqrt(6 / (fan_in + fan_out))."""
    if fan_in <= 0 or fan_out <= 0:
        raise ConfigError(f"fan_in/fan_out must be positive, got {fan_in}, {fan_out}")
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out)).astype(np.float64)


class ParamStore:
    """Ordered mapping name -> leaf Tensor, with bias bookkeeping."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._bias_names: set[str] = set()
        # one gradient vector for all parameters, in order, and each
        # parameter's view of it; built by zero_grads, dropped when a
        # parameter is registered
        self._grad_flat: np.ndarray | None = None
        self._grad_views: list[np.ndarray] = []

    def add(self, name: str, value: np.ndarray, bias: bool = False) -> Tensor:
        if name in self._params:
            raise StateError(f"parameter {name!r} already registered")
        t = Tensor(np.asarray(value, dtype=np.float64), name=name)
        t.zero_grad()
        self._params[name] = t
        self._grad_flat = None
        if bias:
            self._bias_names.add(name)
        return t

    def add_dense(self, name: str, rng: np.random.Generator,
                  fan_in: int, fan_out: int) -> tuple[Tensor, Tensor]:
        """Register a weight (glorot) + zero bias pair under name.w / name.b."""
        w = self.add(f"{name}.w", glorot_uniform(rng, fan_in, fan_out))
        b = self.add(f"{name}.b", np.zeros(fan_out), bias=True)
        return w, b

    def alias(self, prefix: str, store: "ParamStore") -> None:
        """Register every tensor of ``store`` as ``prefix.<name>``.

        The tensors are shared, not copied, and keep their bias flags. A
        full name that is already registered raises before anything is
        added.
        """
        full = {f"{prefix}.{name}": name for name in store._params}
        taken = sorted(n for n in full if n in self._params)
        if taken:
            raise StateError(f"parameters {taken} already registered")
        for n, name in full.items():
            self._params[n] = store._params[name]
            if name in store._bias_names:
                self._bias_names.add(n)
        self._grad_flat = None

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise StateError(f"unknown parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def is_bias(self, name: str) -> bool:
        return name in self._bias_names

    def weight_tensors(self) -> list[Tensor]:
        """All non-bias parameters (the lasso penalty's domain)."""
        return [t for n, t in self._params.items() if n not in self._bias_names]

    def param_count(self) -> int:
        return sum(t.value.size for t in self._params.values())

    def zero_grads(self) -> None:
        """Zero every gradient with one fill of the flat gradient vector.

        Each parameter's ``grad`` is (re)bound to its view of that vector,
        so ``backward`` accumulates into it in place.
        """
        if self._grad_flat is None:
            self._grad_flat = np.zeros(self.param_count())
            self._grad_views, offset = [], 0
            for t in self._params.values():
                size = t.value.size
                self._grad_views.append(
                    self._grad_flat[offset:offset + size].reshape(t.value.shape))
                offset += size
        else:
            self._grad_flat.fill(0.0)
        for t, view in zip(self._params.values(), self._grad_views):
            t.grad = view

    def flat_grad(self) -> np.ndarray | None:
        """All gradients as one vector in parameter order, without a copy.

        None unless every parameter's ``grad`` is still the view that
        :meth:`zero_grads` bound (a grad set by hand, or bound by another
        store sharing the tensor, is not).
        """
        if self._grad_flat is None or any(
                t.grad is not view
                for t, view in zip(self._params.values(), self._grad_views)):
            return None
        return self._grad_flat

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
