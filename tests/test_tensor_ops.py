"""Autodiff engine: op semantics and gradient accumulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmtl import engine as E
from cloudmtl.errors import DimensionError, StateError


def test_constant_wraps_float64():
    t = E.constant([1, 2, 3])
    assert t.value.dtype == np.float64
    assert t.value.shape == (3,)


def test_add_mul_scalar_broadcast():
    a = E.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = E.add(E.mul(a, 2.0), 1.0)
    assert np.array_equal(out.value, [[3.0, 5.0], [7.0, 9.0]])


def test_matmul_forward_and_grad():
    a = E.constant(np.arange(6, dtype=np.float64).reshape(2, 3), name="a")
    b = E.constant(np.arange(12, dtype=np.float64).reshape(3, 4), name="b")
    out = E.reduce_sum(E.matmul(a, b))
    E.backward(out)
    # d(sum(AB))/dA = ones @ B^T
    assert np.allclose(a.grad, np.ones((2, 4)) @ b.value.T)
    assert np.allclose(b.grad, a.value.T @ np.ones((2, 4)))


def test_dense_matches_manual():
    x = E.constant(np.array([[1.0, -2.0]]))
    w = E.constant(np.array([[3.0, 0.5], [1.0, -1.0]]))  # (in, out)
    b = E.constant(np.array([0.25, -0.25]))
    out = E.dense(x, w, b)
    assert np.allclose(out.value, x.value @ w.value + b.value)


def test_relu_grad_zero_on_negative_side():
    x = E.constant(np.array([-2.0, 0.5]))
    out = E.reduce_sum(E.relu(x))
    E.backward(out)
    assert np.array_equal(x.grad, [0.0, 1.0])


def test_sigmoid_stable_at_extremes():
    x = E.constant(np.array([-800.0, 0.0, 800.0]))
    s = E.sigmoid(x).value
    assert np.all(np.isfinite(s))
    assert s[1] == 0.5
    assert s[0] >= 0.0 and s[2] <= 1.0


def test_clamp_gradient_passes_inside_blocks_outside():
    x = E.constant(np.array([-1.0, 0.3, 2.0]))
    out = E.reduce_sum(E.clamp(x, 0.0, 1.0))
    E.backward(out)
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


def test_softmax_rows_hand_case():
    # logits (0, ln 3) -> probabilities (0.25, 0.75)
    logits = E.constant(np.array([[0.0, np.log(3.0)]]))
    p = E.softmax_rows(logits).value
    assert abs(p[0, 0] - 0.25) < 1e-15
    assert abs(p[0, 1] - 0.75) < 1e-15


def test_softmax_rows_shift_invariant():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(4, 5))
    a = E.softmax_rows(E.constant(logits)).value
    b = E.softmax_rows(E.constant(logits + 1000.0)).value
    assert np.allclose(a, b, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_softmax_rows_sum_to_one(n, k, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=30.0, size=(n, k))
    p = E.softmax_rows(E.constant(logits)).value
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p >= 0.0)


def test_outer_rows_matches_einsum():
    rng = np.random.default_rng(3)
    q = rng.normal(size=(5, 3))
    k = rng.normal(size=(5, 3))
    out = E.outer_rows(E.constant(q), E.constant(k)).value
    assert np.allclose(out, np.einsum("ip,iq->ipq", q, k))


def test_bmatvec_matches_einsum():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 3, 3))
    v = rng.normal(size=(5, 3))
    out = E.bmatvec(E.constant(a), E.constant(v)).value
    assert np.allclose(out, np.einsum("ipq,iq->ip", a, v))


def test_backward_accumulates_additively():
    """Two backward passes double every gradient bitwise."""
    x = E.constant(np.array([[0.5, -1.5], [2.0, 0.25]]), name="x")
    out = E.reduce_sum(E.mul(x, x))
    E.backward(out)
    g1 = x.grad.copy()
    E.backward(out)
    assert np.array_equal(x.grad, 2.0 * g1)


def test_backward_on_a_leaf_root_seeds_its_grad_only():
    """A leaf root gets the seed as its grad, twice on two passes, and holds
    no pending cotangent after."""
    x = E.constant(np.array([0.5, -1.5]), name="x")
    E.backward(x, upstream=np.array([2.0, 3.0]))
    E.backward(x, upstream=np.array([2.0, 3.0]))
    assert np.array_equal(x.grad, [4.0, 6.0])
    assert x._cotangent is None


def test_backward_rejects_shape_mismatch():
    x = E.constant(np.ones((2, 2)))
    out = E.reduce_sum(x)
    with pytest.raises(DimensionError):
        E.backward(out, upstream=np.ones(3))


#: operand checks: (call, error type, its message)
BAD_OPERANDS = {
    "matmul-1d": (lambda: E.matmul(np.ones(3), np.ones((3, 2))), DimensionError,
                  "matmul expects 2-D operands, got (3,) and (3, 2)"),
    "transpose-1d": (lambda: E.transpose(np.ones(3)), DimensionError,
                     "transpose expects a 2-D operand, got (3,)"),
    "dense-bias": (lambda: E.dense(np.ones((1, 2)), np.ones((2, 3)), np.ones(2)),
                   DimensionError,
                   "dense bias shape (2,) incompatible with weight (2, 3)"),
    "l1-norm-empty": (lambda: E.l1_norm([]), DimensionError,
                      "l1_norm needs at least one tensor"),
    "attention-k-v": (lambda: E.attention_mix(np.ones((2, 3)), np.ones((2, 3)),
                                              np.ones((2, 4))), DimensionError,
                      "attention_mix expects (n,d),(n,e),(n,e), got (2, 3), "
                      "(2, 3) and (2, 4)"),
    "col-1d": (lambda: E.col(np.ones(3), 0), DimensionError,
               "col expects a 2-D operand, got (3,)"),
    "col-past-end": (lambda: E.col(np.ones((2, 3)), 3), DimensionError,
                     "column 3 out of range for shape (2, 3)"),
    "as-column-2d": (lambda: E.as_column(np.ones((2, 3))), DimensionError,
                     "as_column expects a 1-D operand, got (2, 3)"),
    "backward-array": (lambda: E.backward(np.ones(2)), StateError,
                       "backward requires a Tensor produced by a recorded "
                       "forward pass"),
}


@pytest.mark.parametrize("case", BAD_OPERANDS)
def test_op_rejects_a_bad_operand(case):
    call, error, message = BAD_OPERANDS[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_div_and_log_grads():
    x = E.constant(np.array([2.0]), name="x")
    out = E.log(E.div(1.0, x))  # -log(x)
    E.backward(out)
    assert np.allclose(x.grad, [-0.5])


def test_reduce_mean_grad_is_uniform():
    x = E.constant(np.ones((2, 5)))
    E.backward(E.reduce_mean(x))
    assert np.allclose(x.grad, np.full((2, 5), 0.1))


def test_col_and_as_column_round_trip():
    x = E.constant(np.arange(6, dtype=np.float64).reshape(3, 2))
    c = E.col(x, 1)
    assert c.value.shape == (3,)
    back = E.as_column(c)
    assert back.value.shape == (3, 1)
    assert np.array_equal(back.value.ravel(), x.value[:, 1])


def test_forward_never_mutates_inputs():
    base = np.array([[1.0, 2.0]])
    x = E.constant(base)
    E.relu(x)
    E.softmax_rows(x)
    E.clamp(x, 0.0, 1.5)
    assert np.array_equal(x.value, [[1.0, 2.0]])


def test_repr_gives_the_shape_and_any_name():
    assert repr(E.constant(np.zeros((2, 3)))) == "Tensor(shape=(2, 3))"
    assert repr(E.constant(1.0, name="w")) == "Tensor(shape=() name='w')"
