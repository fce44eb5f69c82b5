"""Reverse-mode automatic differentiation over float64 numpy arrays.

Each op reads its operands, returns a new ``Tensor`` and records the
operands and a vector-Jacobian product (VJP) closure; under :func:`no_grad`
it records nothing, with bitwise the same values. :func:`backward` walks
the recorded interior nodes once in reverse topological order and adds
each leaf cotangent in place into the leaf's ``grad`` as it arrives, so
repeated calls accumulate and a parameter's ``grad`` stays the view of its
store's flat gradient vector.

Invariants:

* all values are float64 arrays (scalars are 0-d arrays);
* no forward or VJP writes an operand or a cotangent it is handed; an op
  may build its own fresh result in place;
* a node's cotangents sum in a fixed order: its consumers' reverse DFS
  post-order. Into a zero ``grad``, adding them one by one is bitwise
  adding their sum once (``(0 + a) + b == 0 + (a + b)``, signed zeros too);
* a fused node (``dense``, ``l1_norm``, ``attention_mix``) gives bitwise
  the value and cotangents of the chain of ops its docstring names;
* softmax subtracts the row max, so every finite row sums to 1;
* probabilities bound for logarithms are clamped to
  ``[PROB_EPS, 1 - PROB_EPS]``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Sequence

import numpy as np

from ..errors import DimensionError, StateError

PROB_EPS = 1e-7

#: rows of the score tile that a graph-free :func:`attention_mix` reuses
ATTENTION_TILE = 256

#: whether ops record parents and VJPs; switched off by :func:`no_grad`
_recording: ContextVar[bool] = ContextVar("cloudmtl_engine_recording", default=True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Run ops without recording a graph; restores the previous mode on exit.

    The mode is a context variable, so it holds in this thread and in
    threads run in a copy of its context, not in threads started elsewhere.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


class Tensor:
    """A graph node: a float64 value, its parents and VJP, and a ``grad``.

    ``parents`` and ``vjp`` are empty for leaves and for results computed
    under :func:`no_grad`. Only leaves get a ``grad``: :func:`backward`
    allocates it, or a parameter's ``ParamStore`` binds it.
    """

    __slots__ = ("value", "grad", "parents", "vjp", "name", "_cotangent")

    def __init__(self, value, parents: tuple = (), vjp: Callable | None = None,
                 name: str | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        if _recording.get():
            self.parents, self.vjp = parents, vjp
        else:
            self.parents, self.vjp = (), None
        self.name = name
        self._cotangent = None  # backward's mark (False), then pending cotangent

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
    """Affine layer ``x @ w + b``, ``b`` broadcast across rows: one node,
    bitwise ``add(matmul(x, w), b)``, with the bias added into the product.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if b.value.ndim != 1 or b.value.shape[0] != w.value.shape[1]:
        raise DimensionError(
            f"dense bias shape {b.value.shape} incompatible with weight {w.value.shape}")
    _check_matmul(x, w)
    out_val = x.value @ w.value
    out_val += b.value

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
    """``sum_t sum(|t|)`` over ``tensors`` in the order given: one node,
    bitwise ``add(reduce_sum(absval(t0)), ...)``; cotangents ``g * sign(t)``.
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


def reduce_sum(x) -> Tensor:
    x = _wrap(x)
    return Tensor(x.value.sum(), (x,), lambda g: (np.full(x.value.shape, g),))


def reduce_mean(x) -> Tensor:
    x = _wrap(x)
    denom = x.value.size
    return Tensor(x.value.mean(), (x,),
                  lambda g: (np.full(x.value.shape, g / denom),))


def _row_max(v: np.ndarray) -> np.ndarray:
    """``v.max(axis=-1, keepdims=True)`` by pairwise halving of the columns;
    exact up to the sign of a zero max, which ``exp`` of the shift ignores.
    """
    m, k = v, v.shape[-1]
    while k > 1:
        half = k // 2
        head = np.maximum(m[..., :half], m[..., half:2 * half],
                          out=None if m is v else m[..., :half])
        if k % 2:
            np.maximum(head[..., :1], m[..., 2 * half:k], out=head[..., :1])
        m, k = head, half
    return m[..., :1].copy()  # frees the halving buffer


def softmax_rows(x) -> Tensor:
    """Softmax along the last axis of an (n, k) or (n, d, d) input, shifted
    by the row max and built in the result buffer; each finite row sums to 1
    within 1e-12. The VJP builds its cotangent in a new buffer, not in ``g``.
    """
    x = _wrap(x)
    y = x.value - _row_max(x.value)
    np.exp(y, out=y)
    np.divide(y, y.sum(axis=-1, keepdims=True), out=y)

    def vjp(g):
        gy = g * y
        dot = gy.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=gy)
        np.multiply(gy, y, out=gy)
        return (gy,)

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


def _attention_rows(q, k, v, finite: bool, y: np.ndarray, out: np.ndarray) -> None:
    """One block of rows of :func:`attention_mix`: scores into ``y``, mix
    into ``out``. With finite ``q`` and ``k`` each score row's max comes
    from its key row's extremes (exact: rounding a product by a fixed factor
    is monotone); otherwise :func:`_row_max` scans the scores."""
    np.einsum("ip,iq->ipq", q, k, out=y)
    if finite:
        with np.errstate(over="ignore", under="ignore"):  # as silent as einsum
            row_max = q * np.where(q >= 0.0, _row_max(k), -_row_max(-k))
        row_max = row_max[:, :, None]
    else:
        row_max = _row_max(y)
    np.subtract(y, row_max, out=y)
    np.exp(y, out=y)
    np.divide(y, y.sum(axis=-1, keepdims=True), out=y)
    np.einsum("ipq,iq->ip", y, v, out=out)


def attention_mix(q, k, v) -> Tensor:
    """Per-row attention (n, d), (n, e), (n, e) -> (n, d): one node, bitwise
    ``bmatvec(softmax_rows(outer_rows(q, k)), v)``. The recording op builds
    all (n, d, e) scores in one buffer, which its VJP reads; under
    :func:`no_grad` they are built ``ATTENTION_TILE`` rows at a time in one
    reused tile. Whether ``q`` and ``k`` are finite is decided once over all
    rows."""
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    qv, kv, vv = q.value, k.value, v.value
    if qv.ndim != 2 or kv.ndim != 2 or kv.shape != vv.shape \
            or qv.shape[0] != kv.shape[0]:
        raise DimensionError(
            f"attention_mix expects (n,d),(n,e),(n,e), got {qv.shape}, "
            f"{kv.shape} and {vv.shape}")
    n, d, e = qv.shape[0], qv.shape[1], kv.shape[1]
    finite = bool(e) and np.isfinite(qv).all() and np.isfinite(kv).all()
    tile = n if _recording.get() else min(n, ATTENTION_TILE)
    y, out_val = np.empty((tile, d, e)), np.empty((n, d))
    for lo in range(0, n, max(tile, 1)):
        hi = min(n, lo + tile)
        _attention_rows(qv[lo:hi], kv[lo:hi], vv[lo:hi], finite, y[:hi - lo],
                        out_val[lo:hi])

    def vjp(g):
        dm = np.einsum("ip,iq->ipq", g, vv)
        dv = np.einsum("ipq,ip->iq", y, g)
        gy = dm * y
        dot = gy.sum(axis=-1, keepdims=True)
        np.subtract(dm, dot, out=gy)
        np.multiply(gy, y, out=gy)
        dq = np.einsum("ipq,iq->ip", gy, kv)
        dk = np.einsum("ipq,ip->iq", gy, qv)
        return dq, dk, dv

    return Tensor(out_val, (q, k, v), vjp)


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
    """``root`` and the interior nodes it reaches, parents before children
    (DFS post-order), each marked reached by ``_cotangent = False``."""
    order: list[Tensor] = []
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if node._cotangent is not None:
            continue
        node._cotangent = False
        stack.append((node, True))
        for p in node.parents:
            if p.vjp is not None and p._cotangent is None:
                stack.append((p, False))
    return order


def _receive(node: Tensor, g: np.ndarray) -> None:
    """Add a leaf's cotangent into its ``grad``; sum an interior node's into
    a new pending array (``g`` may be another node's, so never in place)."""
    if node.vjp is None:
        if node.grad is None:
            node.grad = np.zeros_like(node.value)
        np.add(node.grad, g, out=node.grad)
    else:
        prev = node._cotangent
        node._cotangent = g if prev is False else prev + g


def backward(root: Tensor, upstream=None) -> None:
    """Add d(root)/d(leaf) in place into ``grad`` of every leaf reached (a
    node whose ``vjp`` is None) as each cotangent arrives; interior nodes
    keep ``grad = None`` and hold a pending ``_cotangent`` only until their
    turn, none left on return or raise.

    ``upstream`` seeds root's cotangent (default ones). Raises StateError if
    ``root`` is not a Tensor, DimensionError if ``upstream``'s shape differs.
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
    try:
        _receive(root, seed)
        for node in reversed(order):
            g, node._cotangent = node._cotangent, None
            if g is False:       # no cotangent arrived, or root is a leaf
                continue
            for parent, pg in zip(node.parents, node.vjp(g)):
                if pg is not None:
                    _receive(parent, pg)
    finally:
        for node in order:
            node._cotangent = None
