"""Property tests: every node-building engine primitive's VJP against
central differences, on random shapes and values.

Each check seeds ``backward`` with a random cotangent ``c`` of the output's
shape, so the analytic gradient of the scalar ``sum(f(inputs) * c)`` is
compared with its central-difference estimate entry by entry. Inputs are
drawn away from the kinks of ``relu``, ``clamp``, ``absval`` and
``l1_norm`` (and from zero denominators and non-positive logarithms), where
a two-sided quotient does not estimate a derivative.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmtl import engine as E

STEP = 1e-6
EXAMPLES = settings(max_examples=15, deadline=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=4)

#: names in ``cloudmtl.engine.__all__`` that do not build graph nodes
NOT_OPS = {
    "Tensor", "constant", "backward", "no_grad", "PROB_EPS", "ParamStore",
    "glorot_uniform", "TrainConfig", "AdamState", "optimizer_step",
    "global_grad_norm", "GradCheckReport", "finite_diff_check",
    "dumps_deterministic", "save_checkpoint", "load_checkpoint",
}
COVERED: set[str] = set()


def covers(*names):
    def mark(test):
        COVERED.update(names)
        return test
    return mark


def _off_kink(rng, shape, margin=0.1, scale=2.0):
    """Values with |v| in [margin, scale]: no entry within ``margin`` of 0."""
    mag = rng.uniform(margin, scale, size=shape)
    return mag * rng.choice([-1.0, 1.0], size=shape)


def check_vjp(fn, *arrays, seed=0):
    """Assert the VJP of ``fn`` matches central differences for every input."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    leaves = [E.constant(a.copy()) for a in arrays]
    out = fn(*leaves)
    cot = np.random.default_rng(seed).normal(size=out.value.shape)
    E.backward(out, upstream=cot)
    if out.vjp is not None:
        assert out.grad is None, "intermediate node kept a grad"

    def objective(values):
        return float(np.sum(fn(*[E.constant(v) for v in values]).value * cot))

    for i, (leaf, a) in enumerate(zip(leaves, arrays)):
        numeric = np.zeros_like(a)
        for idx in np.ndindex(a.shape):
            plus = [v.copy() for v in arrays]
            minus = [v.copy() for v in arrays]
            plus[i][idx] += STEP
            minus[i][idx] -= STEP
            numeric[idx] = (objective(plus) - objective(minus)) / (2 * STEP)
        assert leaf.grad is not None and leaf.grad.shape == a.shape, i
        np.testing.assert_allclose(leaf.grad, numeric, rtol=1e-5, atol=1e-6,
                                   err_msg=f"operand {i}")


# ---------------------------------------------------------------------------
# elementwise binary ops, including broadcasting through _unbroadcast

BINARY = {"add": E.add, "sub": E.sub, "mul": E.mul, "div": E.div}


@covers(*BINARY)
@EXAMPLES
@given(op=st.sampled_from(sorted(BINARY)), n=dims, k=dims, seed=seeds,
       small=st.sampled_from(["same", "0d", "1k", "k", "n1"]),
       small_first=st.booleans())
def test_binary_ops_with_broadcasting(op, n, k, seed, small, small_first):
    rng = np.random.default_rng(seed)
    shape = {"same": (n, k), "0d": (), "1k": (1, k), "k": (k,),
             "n1": (n, 1)}[small]
    big = _off_kink(rng, (n, k), margin=0.5)
    other = _off_kink(rng, shape, margin=0.5)
    args = (other, big) if small_first else (big, other)
    check_vjp(BINARY[op], *args, seed=seed)


@covers("neg", "transpose")
@EXAMPLES
@given(n=dims, k=dims, seed=seeds)
def test_neg_and_transpose(n, k, seed):
    x = np.random.default_rng(seed).normal(size=(n, k))
    check_vjp(E.neg, x, seed=seed)
    check_vjp(E.transpose, x, seed=seed)


# ---------------------------------------------------------------------------
# linear algebra


@covers("matmul", "dense")
@EXAMPLES
@given(n=dims, k=dims, m=dims, seed=seeds)
def test_matmul_and_fused_dense(n, k, m, seed):
    rng = np.random.default_rng(seed)
    x, w, b = rng.normal(size=(n, k)), rng.normal(size=(k, m)), rng.normal(size=m)
    check_vjp(E.matmul, x, w, seed=seed)
    check_vjp(E.dense, x, w, b, seed=seed)


# ---------------------------------------------------------------------------
# nonlinearities


@covers("relu", "absval", "activation")
@EXAMPLES
@given(n=dims, k=dims, seed=seeds)
def test_kinked_elementwise_ops(n, k, seed):
    x = _off_kink(np.random.default_rng(seed), (n, k))
    check_vjp(E.relu, x, seed=seed)
    check_vjp(E.absval, x, seed=seed)
    check_vjp(lambda t: E.activation(t, "relu"), x, seed=seed)


@covers("sigmoid", "clamped_sigmoid", "activation")
@EXAMPLES
@given(n=dims, k=dims, seed=seeds)
def test_sigmoid_family(n, k, seed):
    # |x| <= 5 keeps sigmoid well inside the [1e-7, 1 - 1e-7] clamp
    x = np.random.default_rng(seed).uniform(-5.0, 5.0, size=(n, k))
    check_vjp(E.sigmoid, x, seed=seed)
    check_vjp(E.clamped_sigmoid, x, seed=seed)
    check_vjp(lambda t: E.activation(t, "sigmoid"), x, seed=seed)


@covers("clamp")
@EXAMPLES
@given(n=dims, k=dims, seed=seeds)
def test_clamp_inside_and_outside(n, k, seed):
    rng = np.random.default_rng(seed)
    lo, hi = -1.0, 1.0
    # each entry at least 0.1 from both bounds: below, inside or above
    centers = rng.choice([-1.6, 0.0, 1.6], size=(n, k))
    x = centers + rng.uniform(-0.4, 0.4, size=(n, k))
    check_vjp(lambda t: E.clamp(t, lo, hi), x, seed=seed)


@covers("log")
@EXAMPLES
@given(n=dims, k=dims, seed=seeds)
def test_log(n, k, seed):
    x = np.random.default_rng(seed).uniform(0.5, 3.0, size=(n, k))
    check_vjp(E.log, x, seed=seed)


# ---------------------------------------------------------------------------
# reductions


@covers("reduce_sum", "reduce_mean")
@EXAMPLES
@given(n=dims, k=dims, seed=seeds)
def test_reductions(n, k, seed):
    x = np.random.default_rng(seed).normal(size=(n, k))
    check_vjp(E.reduce_sum, x, seed=seed)
    check_vjp(E.reduce_mean, x, seed=seed)


@covers("l1_norm")
@EXAMPLES
@given(shapes=st.lists(st.tuples(dims, dims), min_size=1, max_size=3),
       seed=seeds, lam=st.floats(min_value=1e-3, max_value=2.0))
def test_l1_norm(shapes, seed, lam):
    rng = np.random.default_rng(seed)
    arrays = [_off_kink(rng, s) for s in shapes]
    check_vjp(lambda *ts: E.l1_norm(ts), *arrays, seed=seed)
    check_vjp(lambda *ts: E.mul(lam, E.l1_norm(ts)), *arrays, seed=seed)


@covers("softmax_rows")
@EXAMPLES
@given(n=dims, k=st.integers(min_value=2, max_value=4), seed=seeds,
       three_d=st.booleans())
def test_softmax_rows_2d_and_3d(n, k, seed, three_d):
    shape = (n, k, k) if three_d else (n, k)
    x = np.random.default_rng(seed).normal(scale=2.0, size=shape)
    check_vjp(E.softmax_rows, x, seed=seed)


# ---------------------------------------------------------------------------
# batched per-row products and indexing


@covers("outer_rows", "bmatvec")
@EXAMPLES
@given(n=dims, d=dims, e=dims, seed=seeds)
def test_batched_products(n, d, e, seed):
    rng = np.random.default_rng(seed)
    check_vjp(E.outer_rows, rng.normal(size=(n, d)), rng.normal(size=(n, e)),
              seed=seed)
    check_vjp(E.bmatvec, rng.normal(size=(n, d, e)), rng.normal(size=(n, e)),
              seed=seed)


@covers("attention_mix")
@EXAMPLES
@given(n=dims, d=dims, e=dims, seed=seeds)
def test_attention_mix(n, d, e, seed):
    rng = np.random.default_rng(seed)
    check_vjp(E.attention_mix, rng.normal(size=(n, d)), rng.normal(size=(n, e)),
              rng.normal(size=(n, e)), seed=seed)


@covers("col", "as_column")
@EXAMPLES
@given(n=dims, k=dims, seed=seeds, data=st.data())
def test_col_and_as_column(n, k, seed, data):
    rng = np.random.default_rng(seed)
    j = data.draw(st.integers(min_value=0, max_value=k - 1))
    check_vjp(lambda t: E.col(t, j), rng.normal(size=(n, k)), seed=seed)
    check_vjp(E.as_column, rng.normal(size=n), seed=seed)


def test_every_primitive_is_covered():
    ops = {name for name in E.__all__ if name not in NOT_OPS}
    assert ops == COVERED, sorted(ops ^ COVERED)
