"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every operation is a pure function: it reads its operands, allocates a new
``Tensor`` holding the result, and records its operands and a
vector-Jacobian product (VJP) closure for the backward pass. Inside
:func:`no_grad` nothing is recorded: results are leaves with no parents and
no VJP, so an intermediate array is freed as soon as no variable refers to
it, as with PyTorch's ``torch.no_grad()``; values are bitwise those of a
recorded forward. Calling :func:`backward` on a scalar result
walks the recorded graph once in reverse topological order and *adds* the
resulting cotangents into the ``grad`` field of each leaf it reaches
(parameters and constants, the nodes without a VJP); intermediate nodes pass
their cotangent on and keep ``grad = None``, as in PyTorch's autograd.
The addition is in place (``np.add(grad, g, out=grad)``, the same values as
``grad + g``), so a parameter's ``grad`` stays the view of its store's flat
gradient vector that :meth:`ParamStore.flat_grad` bound, the one vector the
optimizer reads; a caller that keeps a leaf's ``grad`` across a later
backward must copy it.
Because accumulation is additive, two backward passes without an intervening
``zero_grads`` produce exactly doubled gradients, and gradients of a sum of
losses equal the sum of the individual gradients.

Design constraints honored throughout:

* all values are ``numpy.float64`` arrays (scalars are 0-d arrays);
* forward never mutates an operand (purity: repeated forward on the same
  inputs is bitwise identical);
* softmax subtracts the row max before exponentiation so any finite input
  row produces a row summing to 1;
* probabilities destined for logarithms are clamped to
  ``[PROB_EPS, 1 - PROB_EPS]`` with ``PROB_EPS = 1e-7``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from ..errors import DimensionError, StateError

PROB_EPS = 1e-7

#: whether ops record parents and VJPs; switched off by :func:`no_grad`
_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Run ops without recording a graph; restores the previous mode on exit.

    The mode is one module flag, so it holds for every thread of the process.
    """
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """A node in the autodiff graph: a float64 value plus backward plumbing.

    ``parents`` and ``vjp`` are empty for leaves (parameters, constants) and
    for every result computed under :func:`no_grad`.
    Only leaves ever hold a ``grad``: :func:`backward` allocates it lazily on
    a leaf it reaches, adds into it in place, and leaves it ``None`` on
    every intermediate node. Parameter leaves get their ``grad`` from
    :class:`~cloudmtl.engine.params.ParamStore`: zeros at registration, then
    a view of the store's flat gradient vector, so accumulation across
    batches works without special cases.
    """

    __slots__ = ("value", "grad", "parents", "vjp", "name")

    def __init__(self, value, parents: tuple = (), vjp: Callable | None = None,
                 name: str | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        if _recording:
            self.parents, self.vjp = parents, vjp
        else:
            self.parents, self.vjp = (), None
        self.name = name

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.value.shape}{tag})"


def constant(value, name: str | None = None) -> Tensor:
    """Wrap a numpy array / scalar as a graph leaf with no recorded parents."""
    return Tensor(value, parents=(), vjp=None, name=name)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away leading axes that broadcasting added.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were size 1 in the original.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_val = a.value + b.value

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return Tensor(out_val, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_val = a.value - b.value

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)

    return Tensor(out_val, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_val = a.value * b.value

    def vjp(g):
        return (_unbroadcast(g * b.value, a.value.shape),
                _unbroadcast(g * a.value, b.value.shape))

    return Tensor(out_val, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_val = a.value / b.value

    def vjp(g):
        return (_unbroadcast(g / b.value, a.value.shape),
                _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))

    return Tensor(out_val, (a, b), vjp)


def neg(a) -> Tensor:
    a = _wrap(a)
    return Tensor(-a.value, (a,), lambda g: (-g,))


# ---------------------------------------------------------------------------
# linear algebra


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise DimensionError(
            f"matmul expects 2-D operands, got {a.value.shape} and {b.value.shape}")
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions differ: {a.value.shape} @ {b.value.shape}")


def matmul(a, b) -> Tensor:
    """2-D matrix product. Shapes (n, k) @ (k, m) -> (n, m)."""
    a, b = _wrap(a), _wrap(b)
    _check_matmul(a, b)
    out_val = a.value @ b.value

    def vjp(g):
        return g @ b.value.T, a.value.T @ g

    return Tensor(out_val, (a, b), vjp)


def transpose(a) -> Tensor:
    a = _wrap(a)
    if a.value.ndim != 2:
        raise DimensionError(f"transpose expects a 2-D operand, got {a.value.shape}")
    return Tensor(a.value.T, (a,), lambda g: (g.T,))


def dense(x, w, b) -> Tensor:
    """Affine layer: ``x @ w + b`` with ``b`` broadcast across rows.

    One graph node; value and cotangents are bitwise those of
    ``add(matmul(x, w), b)``.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if b.value.ndim != 1 or b.value.shape[0] != w.value.shape[1]:
        raise DimensionError(
            f"dense bias shape {b.value.shape} incompatible with weight {w.value.shape}")
    _check_matmul(x, w)
    out_val = x.value @ w.value + b.value

    def vjp(g):
        return g @ w.value.T, x.value.T @ g, g.sum(axis=0)

    return Tensor(out_val, (x, w, b), vjp)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(x) -> Tensor:
    x = _wrap(x)
    out_val = np.maximum(x.value, 0.0)

    def vjp(g):
        return (g * (x.value > 0.0),)

    return Tensor(out_val, (x,), vjp)


def _sigmoid_value(v: np.ndarray) -> np.ndarray:
    # Stable in both tails: never exponentiates a large positive argument.
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def sigmoid(x) -> Tensor:
    x = _wrap(x)
    s = _sigmoid_value(x.value)

    def vjp(g):
        return (g * s * (1.0 - s),)

    return Tensor(s, (x,), vjp)


def clamp(x, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient passes through unclipped entries."""
    x = _wrap(x)
    out_val = np.clip(x.value, lo, hi)

    def vjp(g):
        return (g * ((x.value >= lo) & (x.value <= hi)),)

    return Tensor(out_val, (x,), vjp)


def clamped_sigmoid(x) -> Tensor:
    """Sigmoid followed by a clamp to [PROB_EPS, 1-PROB_EPS] (log-safe)."""
    return clamp(sigmoid(x), PROB_EPS, 1.0 - PROB_EPS)


def activation(x, kind: str) -> Tensor:
    """Dispatch by name; supported kinds are ``relu`` and ``sigmoid``."""
    if kind == "relu":
        return relu(x)
    if kind == "sigmoid":
        return sigmoid(x)
    raise DimensionError(f"unknown activation kind {kind!r}")


def log(x) -> Tensor:
    x = _wrap(x)
    out_val = np.log(x.value)

    def vjp(g):
        return (g / x.value,)

    return Tensor(out_val, (x,), vjp)


def absval(x) -> Tensor:
    x = _wrap(x)
    out_val = np.abs(x.value)

    def vjp(g):
        return (g * np.sign(x.value),)

    return Tensor(out_val, (x,), vjp)


# ---------------------------------------------------------------------------
# reductions


def l1_norm(tensors: Sequence) -> Tensor:
    """``sum_t sum(|t|)`` over ``tensors``, summed in the order given.

    One graph node; value and cotangents are bitwise those of the chain
    ``add(...add(reduce_sum(absval(t0)), reduce_sum(absval(t1)))...)``.
    Each operand's cotangent is ``g * sign(t)`` (0 where an entry is 0).
    """
    ts = tuple(_wrap(t) for t in tensors)
    if not ts:
        raise DimensionError("l1_norm needs at least one tensor")
    values = [t.value for t in ts]
    total = np.abs(values[0]).sum()
    for v in values[1:]:
        total = total + np.abs(v).sum()

    def vjp(g):
        return tuple(g * np.sign(v) for v in values)

    return Tensor(total, ts, vjp)


def reduce_sum(x, axis=None) -> Tensor:
    x = _wrap(x)
    out_val = x.value.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.value.shape).copy(),)
        expanded = np.expand_dims(g, axis)
        return (np.broadcast_to(expanded, x.value.shape).copy(),)

    return Tensor(out_val, (x,), vjp)


def reduce_mean(x, axis=None) -> Tensor:
    x = _wrap(x)
    out_val = x.value.mean(axis=axis)
    denom = x.value.size if axis is None else x.value.shape[axis]

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / denom, x.value.shape).copy(),)
        expanded = np.expand_dims(g / denom, axis)
        return (np.broadcast_to(expanded, x.value.shape).copy(),)

    return Tensor(out_val, (x,), vjp)


def softmax_rows(x) -> Tensor:
    """Softmax along the last axis with max-subtraction for stability.

    For any all-finite input each output row sums to 1 (within 1e-12) and
    entries lie in [0, 1]. Works on 2-D (n, k) and 3-D (n, d, d) inputs; the
    latter is the row-wise normalization of per-pixel attention scores.
    """
    x = _wrap(x)
    shifted = x.value - x.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - dot) * y,)

    return Tensor(y, (x,), vjp)


# ---------------------------------------------------------------------------
# batched per-row products (attention building blocks)


def outer_rows(a, b) -> Tensor:
    """Per-row outer product: (n, d), (n, e) -> (n, d, e).

    ``out[i, p, q] = a[i, p] * b[i, q]``.
    """
    a, b = _wrap(a), _wrap(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[0] != b.value.shape[0]:
        raise DimensionError(
            f"outer_rows expects (n,d),(n,e) with shared n, got "
            f"{a.value.shape} and {b.value.shape}")
    out_val = np.einsum("ip,iq->ipq", a.value, b.value)

    def vjp(g):
        da = np.einsum("ipq,iq->ip", g, b.value)
        db = np.einsum("ipq,ip->iq", g, a.value)
        return da, db

    return Tensor(out_val, (a, b), vjp)


def bmatvec(m, v) -> Tensor:
    """Per-row matrix-vector product: (n, d, e), (n, e) -> (n, d).

    ``out[i, p] = sum_q m[i, p, q] * v[i, q]``.
    """
    m, v = _wrap(m), _wrap(v)
    if m.value.ndim != 3 or v.value.ndim != 2 or m.value.shape[0] != v.value.shape[0] \
            or m.value.shape[2] != v.value.shape[1]:
        raise DimensionError(
            f"bmatvec expects (n,d,e),(n,e), got {m.value.shape} and {v.value.shape}")
    out_val = np.einsum("ipq,iq->ip", m.value, v.value)

    def vjp(g):
        dm = np.einsum("ip,iq->ipq", g, v.value)
        dv = np.einsum("ipq,ip->iq", m.value, g)
        return dm, dv

    return Tensor(out_val, (m, v), vjp)


# ---------------------------------------------------------------------------
# indexing helpers


def col(x, j: int) -> Tensor:
    """Extract column ``j`` of a 2-D tensor as a 1-D vector."""
    x = _wrap(x)
    if x.value.ndim != 2:
        raise DimensionError(f"col expects a 2-D operand, got {x.value.shape}")
    if not (0 <= j < x.value.shape[1]):
        raise DimensionError(f"column {j} out of range for shape {x.value.shape}")
    out_val = x.value[:, j].copy()

    def vjp(g):
        full = np.zeros_like(x.value)
        full[:, j] = g
        return (full,)

    return Tensor(out_val, (x,), vjp)


def as_column(x) -> Tensor:
    """Reshape a 1-D vector (n,) to a column (n, 1) for row-broadcasting."""
    x = _wrap(x)
    if x.value.ndim != 1:
        raise DimensionError(f"as_column expects a 1-D operand, got {x.value.shape}")
    out_val = x.value.reshape(-1, 1)

    def vjp(g):
        return (g.reshape(-1),)

    return Tensor(out_val, (x,), vjp)


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents before children


def backward(root: Tensor, upstream=None) -> None:
    """Accumulate d(root)/d(leaf) into ``leaf.grad`` for every leaf reached.

    ``upstream`` seeds the cotangent of ``root`` (defaults to ones, i.e. the
    gradient of ``root`` itself; for the usual scalar loss that is 1.0).
    Cotangents are computed in a fresh table on every call and then *added*
    in place into the ``grad`` of each leaf (a node whose ``vjp`` is None),
    so repeated calls accumulate. Intermediate nodes keep ``grad = None``.
    """
    if not isinstance(root, Tensor):
        raise StateError(
            "backward requires a Tensor produced by a recorded forward pass")
    if upstream is None:
        seed = np.ones_like(root.value)
    else:
        seed = np.asarray(upstream, dtype=np.float64)
        if seed.shape != root.value.shape:
            raise DimensionError(
                f"upstream gradient shape {seed.shape} does not match "
                f"value shape {root.value.shape}")

    order = _topo_order(root)
    cotangent: dict[int, np.ndarray] = {id(root): seed}
    for node in reversed(order):
        g = cotangent.pop(id(node), None)
        if g is None:
            continue
        if node.vjp is None:
            if node.grad is None:
                node.grad = np.zeros_like(node.value)
            np.add(node.grad, g, out=node.grad)
            continue
        parent_grads = node.vjp(g)
        for parent, pg in zip(node.parents, parent_grads):
            if pg is None:
                continue
            prev = cotangent.get(id(parent))
            cotangent[id(parent)] = pg if prev is None else prev + pg
