"""Bitwise equivalence of the fused engine paths with their compositions.

The fused ``dense``, ``l1_norm`` and ``attention_mix`` nodes, the fused
loss nodes (binary cross entropy and the hierarchical ``l_hc``, each with
the probability clamp inside) and the flat-vector Adam step must reproduce
the unfused graph and the per-parameter update byte for byte, so trained
weights do not change. The in-place ``dense`` bias and the one-buffer
``softmax_rows`` must give the bytes of the numpy expressions they
replace, and softmax must write neither its operand nor its cotangent.
Every equivalence here is on raw bytes, never ``allclose``; the fused
loss nodes' VJPs are also checked against central differences.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cloudmtl.engine as E
from cloudmtl.data import Standardizer, generate_dataset, get_sensor
from cloudmtl.engine import AdamState, ParamStore, TrainConfig, optimizer_step
from cloudmtl.errors import NumericError, StateError
from cloudmtl.models import (
    VARIANT_SEQ, VARIANTS, ArchitectureSpec, LossTargets, ModelOutputs,
    build_model, losses, train_model,
)
from cloudmtl.models.config import SEQ_STAGES

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=6)


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def unfused_dense(x, w, b):
    return E.add(E.matmul(x, w), b)


def unfused_l1_norm(tensors):
    acc = None
    for t in tensors:
        s = E.reduce_sum(E.absval(t))
        acc = s if acc is None else E.add(acc, s)
    return acc


def unfused_attention_mix(q, k, v):
    return E.bmatvec(E.softmax_rows(E.outer_rows(q, k)), v)


def run_graph(fn, arrays, upstream):
    leaves = [E.constant(a.copy()) for a in arrays]
    out = fn(*leaves)
    E.backward(out, upstream=upstream)
    return out.value, [t.grad for t in leaves]


@settings(max_examples=30, deadline=None)
@given(n=dims, k=dims, m=dims, seed=seeds)
def test_dense_is_bitwise_add_of_matmul(n, k, m, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(n, k)), rng.normal(size=(k, m)), rng.normal(size=m)]
    up = rng.normal(size=(n, m))
    value, grads = run_graph(E.dense, arrays, up)
    ref_value, ref_grads = run_graph(unfused_dense, arrays, up)
    assert same_bytes(value, ref_value)
    assert same_bytes(value, arrays[0] @ arrays[1] + arrays[2])
    for g, r in zip(grads, ref_grads):
        assert same_bytes(g, r)


@settings(max_examples=30, deadline=None)
@given(shapes=st.lists(st.tuples(dims, dims), min_size=1, max_size=5),
       seed=seeds, lam=st.floats(min_value=1e-8, max_value=1.0))
def test_l1_norm_lasso_is_bitwise_the_absval_chain(shapes, seed, lam):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    arrays[0].flat[0] = 0.0  # sign(0) = 0 on both paths
    up = np.asarray(rng.normal())
    value, grads = run_graph(lambda *ts: E.mul(lam, E.l1_norm(ts)), arrays, up)
    ref_value, ref_grads = run_graph(
        lambda *ts: E.mul(lam, unfused_l1_norm(ts)), arrays, up)
    assert same_bytes(value, ref_value)
    for g, r in zip(grads, ref_grads):
        assert same_bytes(g, r)


def reference_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def reference_softmax_vjp(g, y):
    dot = (g * y).sum(axis=-1, keepdims=True)
    return (g - dot) * y


def same_bytes_or_nan(a, b) -> bool:
    """Byte equality, except that NaN matches NaN of any payload."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and same_bytes(a[~nan], b[~nan]))


# ties, signed zeros, exp's overflow and underflow edges, infinities, NaN
SOFTMAX_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 709.0, 710.0, -745.0,
                     1e308, -1e308, np.inf, -np.inf, np.nan]),
    st.floats(min_value=-50.0, max_value=50.0))


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       shape=st.one_of(
           st.tuples(st.integers(0, 5), st.integers(1, 17)),
           st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 17))),
       shift=st.sampled_from([0.0, 1e3, -1e6, 1e15]))
def test_softmax_rows_is_bitwise_the_numpy_expressions(data, shape, shift):
    x = data.draw(hnp.arrays(np.float64, shape, elements=SOFTMAX_CELLS)) + shift
    g = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-10, 10)))
    x_copy, g_copy = x.copy(), g.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        out = E.softmax_rows(x)
        (gx,) = out.vjp(g)
        want = reference_softmax(x_copy)
        want_gx = reference_softmax_vjp(g_copy, want)
    assert same_bytes_or_nan(out.value, want)
    assert same_bytes_or_nan(gx, want_gx)
    # neither the operand nor the cotangent it was handed is written
    assert same_bytes_or_nan(x, x_copy) and same_bytes_or_nan(g, g_copy)


def test_softmax_rows_vjp_leaves_a_shared_cotangent_alone():
    # add's VJP hands one cotangent array to both softmax nodes
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=(5, 3, 4)) for _ in range(2)]
    up = rng.normal(size=(5, 3, 4))
    _, grads = run_graph(lambda a, b: E.add(E.softmax_rows(a), E.softmax_rows(b)),
                         arrays, up)
    for a, g in zip(arrays, grads):
        assert same_bytes(g, reference_softmax_vjp(up, reference_softmax(a)))


def test_softmax_rows_peak_memory_is_about_its_output():
    x = np.random.default_rng(0).normal(size=(2048, 16, 16))
    tracemalloc.start()
    try:
        out = E.softmax_rows(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * out.value.nbytes, f"peak {peak / out.value.nbytes:.2f}x"


# zeros of both signs, ties, subnormals and products that overflow to ±inf
ATTENTION_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 5e-324, -3e-310, 1e-160,
                     -1e-160, 1e160, -1e160, 1e300, -1e300]),
    st.floats(min_value=-30.0, max_value=30.0))
NON_FINITE_CELLS = st.one_of(ATTENTION_CELLS,
                             st.sampled_from([np.inf, -np.inf, np.nan]))


def attention_graph(fn, q, k, v, g):
    """Value, operand cotangents and the floating-point warnings, in order,
    of one forward and backward of ``fn``."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        value, grads = run_graph(fn, [q, k, v], g)
    return value, grads, [str(w.message) for w in caught]


def assert_attention_mix_is_the_chain(q, k, v, g):
    value, grads, warned = attention_graph(E.attention_mix, q, k, v, g)
    want, want_grads, want_warned = attention_graph(unfused_attention_mix,
                                                    q, k, v, g)
    assert same_bytes_or_nan(value, want)
    for got, ref in zip(grads, want_grads):
        assert same_bytes_or_nan(got, ref)
    assert warned == want_warned


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 4), d=st.integers(1, 5),
       e=st.integers(1, 6), finite=st.booleans(), tied=st.booleans())
def test_attention_mix_is_bitwise_the_unfused_chain(data, n, d, e, finite, tied):
    cells = ATTENTION_CELLS if finite else NON_FINITE_CELLS
    q = data.draw(hnp.arrays(np.float64, (n, d), elements=cells))
    k = data.draw(hnp.arrays(np.float64, (n, e), elements=cells))
    if tied:
        k[:, e // 2:] = k[:, :1]
    v = data.draw(hnp.arrays(np.float64, (n, e), elements=st.floats(-10, 10)))
    g = data.draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-10, 10)))
    assert_attention_mix_is_the_chain(q, k, v, g)
    # no operand and no cotangent is written
    copies = [a.copy() for a in (q, k, v, g)]
    with np.errstate(all="ignore"):
        E.attention_mix(q, k, v).vjp(g)
    for a, c in zip((q, k, v, g), copies):
        assert same_bytes_or_nan(a, c)


def test_attention_mix_non_finite_operands_warn_as_the_chain():
    # 0 * inf: a max from the extreme keys would warn where the chain does not
    q = np.array([[0.0, -1.5], [np.inf, 2.0], [np.nan, 0.5]])
    k = np.array([[np.inf, 1.0, -2.0], [0.0, 3.0, 3.0], [1.0, -1.0, 0.0]])
    v = np.arange(9.0).reshape(3, 3)
    assert_attention_mix_is_the_chain(q, k, v, np.ones((3, 2)))


def test_backward_keeps_grad_on_leaves_only():
    x = E.constant(np.array([[1.0, -2.0]]))
    w = E.constant(np.array([[0.5], [0.25]]))
    b = E.constant(np.array([0.1]))
    h = E.dense(x, w, b)
    out = E.reduce_sum(E.relu(h))
    E.backward(out)
    assert h.grad is None and out.grad is None
    assert x.grad is not None and w.grad is not None and b.grad is not None


# ---------------------------------------------------------------------------
# backward against the dict-and-DFS walk it replaced


def reference_backward(root):
    """The former walk: every node, leaves included, in DFS post-order; the
    cotangents in an ``id()``-keyed dict; each leaf's cotangents summed
    first and added once into its ``grad``."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node.parents if id(p) not in seen)
    cotangent = {id(root): np.ones_like(root.value)}
    for node in reversed(order):
        g = cotangent.pop(id(node), None)
        if g is None:
            continue
        if node.vjp is None:
            if node.grad is None:
                node.grad = np.zeros_like(node.value)
            np.add(node.grad, g, out=node.grad)
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is not None:
                prev = cotangent.get(id(parent))
                cotangent[id(parent)] = pg if prev is None else prev + pg


def graph_nodes(root):
    nodes, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node.parents)
    return list(nodes.values())


def assert_backward_is_the_reference(root, params):
    """Both walks from zeroed grads on one graph give the same leaf bytes."""
    leaves = [t for t in graph_nodes(root) if t.vjp is None]
    assert len(leaves) < len(graph_nodes(root))
    grads = []
    for walk in (E.backward, reference_backward):
        params.zero_grads()
        for t in leaves:
            if not any(t is p for _, p in params.items()):
                t.grad = None
        walk(root)
        grads.append([t.grad.copy() for t in leaves])
    assert all(same_bytes(a, b) for a, b in zip(*grads))


def _one_batch(variant):
    ds = generate_dataset(get_sensor("ABI"), 200, seed=25)
    feats = Standardizer.fit(ds.feature_matrix()).transform(ds.feature_matrix())
    # with the lasso every weight gets two cotangents, its dense's and l1's
    spec = ArchitectureSpec(variant=variant, input_dim=feats.shape[1],
                            lasso_lambda=1e-2)
    batch = LossTargets.from_dataset(ds, feats, spec.bins).take(np.arange(64))
    return build_model(spec, seed=7), batch


@pytest.mark.parametrize("variant", VARIANTS)
def test_backward_matches_the_dict_walk_on_a_training_step(variant):
    model, batch = _one_batch(variant)
    total, _ = losses.compute_loss(model.forward(batch.x, train_mode=True),
                                   batch, model.spec, model.params)
    assert_backward_is_the_reference(total, model.params)


@pytest.mark.parametrize("net", SEQ_STAGES)
def test_backward_matches_the_dict_walk_on_each_seq_stage(net):
    model, batch = _one_batch(VARIANT_SEQ)
    params = model.subnet_params[net]
    total, _ = losses.stage_loss(net, model.stage_output(net, batch.x), batch,
                                 model.spec, params)
    assert_backward_is_the_reference(total, params)


def test_a_raising_vjp_leaves_no_pending_cotangent():
    x = E.constant(np.array([[0.5, -1.5], [2.0, -0.25]]))
    a = E.mul(x, x)
    b = E.relu(a)
    out = E.reduce_sum(E.add(a, b))
    vjp = b.vjp

    def fail(g):
        raise NumericError("vjp failed")

    b.vjp = fail           # by b's turn, add has left a cotangent on a
    with pytest.raises(NumericError, match="vjp failed"):
        E.backward(out)
    assert all(t._cotangent is None for t in graph_nodes(out))
    assert x.grad is None
    b.vjp = vjp
    E.backward(out)        # a left mark would skip its node here
    ref = E.constant(x.value.copy())
    reference_backward(E.reduce_sum(E.add(E.mul(ref, ref), E.relu(E.mul(ref, ref)))))
    assert same_bytes(x.grad, ref.grad)


# ---------------------------------------------------------------------------
# flat-vector Adam against a per-parameter reference


def reference_adam(values, grads, m, v, step, cfg):
    """The per-parameter Adam update, one array at a time."""
    scale = 1.0
    if cfg.clip_norm is not None:
        total = 0.0
        for g in grads:
            if g is not None:
                total += float(np.sum(g * g))
        norm = np.sqrt(total)
        if norm > cfg.clip_norm:
            scale = cfg.clip_norm / norm
    bc1 = 1.0 - cfg.beta1 ** step
    bc2 = 1.0 - cfg.beta2 ** step
    out = []
    for i, (p, g) in enumerate(zip(values, grads)):
        g = np.zeros_like(p) if g is None else g
        if scale != 1.0:
            g = g * scale
        m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * g
        v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * (g * g)
        out.append(p - cfg.lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + cfg.eps))
    return out


@pytest.mark.parametrize("clip_norm", [None, 0.5])
def test_optimizer_step_matches_per_parameter_adam(clip_norm):
    rng = np.random.default_rng(5)
    shapes = {"a.w": (3, 4), "a.b": (4,), "c": (2, 2), "s": ()}
    ps = ParamStore()
    for name, shape in shapes.items():
        # values of the update's own size, so a 1-ulp change in it shows
        ps.add(name, 1e-3 * rng.normal(size=shape))
    cfg = TrainConfig(lr=3e-3, clip_norm=clip_norm)
    state = AdamState()
    values = [t.value.copy() for t in ps.tensors()]
    m = [np.zeros_like(p) for p in values]
    v = [np.zeros_like(p) for p in values]
    for step in range(1, 6):
        grads = [rng.normal(size=p.shape) for p in values]
        grads[2] = None  # "c" has no gradient this run
        for t, g in zip(ps.tensors(), grads):
            t.grad = None if g is None else g.copy()
        optimizer_step(ps, cfg, state)
        values = reference_adam(values, grads, m, v, step, cfg)
        assert state.step == step
        for t, ref in zip(ps.tensors(), values):
            assert same_bytes(t.value, ref), t.name
        assert same_bytes(state.m, np.concatenate([a.ravel() for a in m]))
        assert same_bytes(state.v, np.concatenate([a.ravel() for a in v]))


def test_optimizer_step_rebinds_values():
    ps = ParamStore()
    old = ps.add("w", np.array([1.0, -1.0])).value
    kept = old.copy()
    ps["w"].grad[...] = [0.5, 0.5]
    optimizer_step(ps, TrainConfig(lr=0.1), AdamState())
    assert ps["w"].value is not old
    assert same_bytes(old, kept)


def test_nan_in_second_parameter_is_named():
    ps = ParamStore()
    ps.add("first", np.ones(3))
    ps.add("second", np.ones((2, 2)))
    ps.add("third", np.ones(1))
    ps["second"].grad[1, 0] = np.nan
    ps["third"].grad[0] = np.inf
    before = ps.clone_values()
    state = AdamState()
    with pytest.raises(NumericError, match="'second'"):
        optimizer_step(ps, TrainConfig(), state)
    assert state.step == 0
    for name, value in before.items():
        assert same_bytes(ps[name].value, value)


def test_adam_state_of_another_store_is_rejected():
    ps = ParamStore()
    ps.add("w", np.ones(3))
    state = AdamState()
    optimizer_step(ps, TrainConfig(), state)
    other = ParamStore()
    other.add("w", np.ones(4))
    with pytest.raises(StateError):
        optimizer_step(other, TrainConfig(), state)


# ---------------------------------------------------------------------------
# end to end: training with the fused nodes equals training without them


def _train(variant):
    ds = generate_dataset(get_sensor("ABI"), 400, seed=21)
    feats = Standardizer.fit(ds.feature_matrix()).transform(ds.feature_matrix())
    spec = ArchitectureSpec(variant=variant, input_dim=feats.shape[1])
    targets = LossTargets.from_dataset(ds, feats, spec.bins)
    train, val = targets.take(np.arange(300)), targets.take(np.arange(300, 400))
    model = build_model(spec, seed=3)
    cfg = TrainConfig(lr=3e-3, epochs=2, batch_size=64, seed=4)
    result = train_model(model, train, cfg, val)
    return model.params.clone_values(), result.histories


@pytest.mark.parametrize("variant", ["MT-HCCAR", "SEQ"])
def test_training_matches_unfused_graph(variant, monkeypatch):
    weights, histories = _train(variant)
    calls = {"dense": 0, "l1_norm": 0, "attention_mix": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    with monkeypatch.context() as mp:
        mp.setattr(E, "dense", counted("dense", unfused_dense))
        mp.setattr(E, "l1_norm", counted("l1_norm", unfused_l1_norm))
        mp.setattr(E, "attention_mix",
                   counted("attention_mix", unfused_attention_mix))
        ref_weights, ref_histories = _train(variant)
    assert calls["dense"] > 0 and calls["l1_norm"] > 0
    # theta1 feeds k, v and the residual: its cotangents sum in chain order
    assert (calls["attention_mix"] > 0) == (variant == "MT-HCCAR")
    assert histories == ref_histories
    assert list(weights) == list(ref_weights)
    for name in weights:
        assert same_bytes(weights[name], ref_weights[name]), name


# ---------------------------------------------------------------------------
# fused loss nodes against the clamp/log/mul chains they replace

def clamp_prob(t):
    return E.clamp(t, E.PROB_EPS, 1.0 - E.PROB_EPS)


def unfused_bce_pair(u, labels):
    u = clamp_prob(u)
    ones = np.ones_like(labels)
    pos = E.mul(E.constant(labels), E.log(u))
    neg = E.mul(E.constant(ones - labels), E.log(E.sub(1.0, u)))
    return E.neg(E.add(pos, neg))


def unfused_hierarchical_ce(outputs, targets):
    u_cloud, u_clear, u_liquid, u_ice = (
        clamp_prob(t) for t in (outputs.u_cloud, outputs.u_clear,
                                outputs.u_liquid, outputs.u_ice))
    term = E.add(E.mul(E.constant(targets.l_cloud), E.log(u_cloud)),
                 E.mul(E.constant(targets.l_clear), E.log(u_clear)))
    l_cmask = E.neg(E.reduce_mean(term))
    liq = E.mul(E.mul(u_cloud, E.constant(targets.l_liquid)),
                E.log(E.mul(u_cloud, u_liquid)))
    ice = E.mul(E.mul(u_cloud, E.constant(targets.l_ice)),
                E.log(E.mul(u_cloud, u_ice)))
    l_cphase = E.neg(E.reduce_mean(E.add(liq, ice)))
    return (E.add(l_cmask, l_cphase), float(l_cmask.value),
            float(l_cphase.value))


def random_probs(rng, n):
    """Probabilities in (0, 1) with exact 0s and 1s mixed in (clamped)."""
    u = rng.uniform(0.0, 1.0, size=n)
    u[rng.random(n) < 0.2] = 0.0
    u[rng.random(n) < 0.2] = 1.0
    return u


def random_labels(rng, n):
    """Hierarchical label columns: cloud/clear, and liquid/ice where cloudy."""
    cloud = (rng.random(n) < 0.6).astype(np.float64)
    liquid = np.where(cloud > 0, (rng.random(n) < 0.5).astype(np.float64), 0.0)
    return cloud, 1.0 - cloud, liquid, np.where(cloud > 0, 1.0 - liquid, 0.0)


def hierarchical_graph(fn, probs, labels, upstream):
    leaves = [E.constant(p.copy()) for p in probs]
    n = len(probs[0])
    outputs = ModelOutputs(*leaves, y_cot_hat=E.constant(np.zeros(n)))
    targets = LossTargets(
        x=np.zeros((n, 1)), l_cloud=labels[0], l_clear=labels[1],
        l_liquid=labels[2], l_ice=labels[3], y_cot=np.zeros(n),
        aux_onehot=np.zeros((n, 3)))
    node, l_cmask, l_cphase = fn(outputs, targets)
    E.backward(node, upstream=upstream)
    return node.value, (l_cmask, l_cphase), [t.grad for t in leaves]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=40), seed=seeds)
def test_bce_pair_is_bitwise_the_clamped_chain(n, seed):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.5).astype(np.float64)
    u = random_probs(rng, n)
    up = rng.normal(size=n)
    value, grads = run_graph(lambda t: losses._bce_pair(t, labels), [u], up)
    ref_value, ref_grads = run_graph(lambda t: unfused_bce_pair(t, labels),
                                     [u], up)
    assert same_bytes(value, ref_value)
    assert same_bytes(grads[0], ref_grads[0])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=40), seed=seeds)
def test_hierarchical_ce_is_bitwise_the_clamped_chain(n, seed):
    rng = np.random.default_rng(seed)
    probs = [random_probs(rng, n) for _ in range(4)]
    labels = random_labels(rng, n)
    up = np.asarray(rng.normal())
    value, parts, grads = hierarchical_graph(
        losses._hierarchical_ce, probs, labels, up)
    ref_value, ref_parts, ref_grads = hierarchical_graph(
        unfused_hierarchical_ce, probs, labels, up)
    assert same_bytes(value, ref_value)
    assert same_bytes(parts, ref_parts)
    for g, r in zip(grads, ref_grads):
        assert same_bytes(g, r)


def test_fused_loss_nodes_zero_the_gradient_of_clamped_entries():
    u = np.array([0.0, 0.5, 1.0])
    labels = np.array([1.0, 1.0, 0.0])
    _, grads = run_graph(lambda t: losses._bce_pair(t, labels), [u],
                         np.ones(3))
    assert grads[0][0] == 0.0 and grads[0][2] == 0.0 and grads[0][1] != 0.0
    ones = np.array([1.0])
    _, _, grads = hierarchical_graph(
        losses._hierarchical_ce, [ones, ones * 0.0, ones, ones * 0.0],
        (ones, ones * 0.0, ones, ones * 0.0), np.asarray(1.0))
    assert all(g[0] == 0.0 for g in grads)


def central_difference(objective, arrays, i, step=1e-6):
    numeric = np.zeros_like(arrays[i])
    for idx in np.ndindex(arrays[i].shape):
        plus = [a.copy() for a in arrays]
        minus = [a.copy() for a in arrays]
        plus[i][idx] += step
        minus[i][idx] -= step
        numeric[idx] = (objective(plus) - objective(minus)) / (2 * step)
    return numeric


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=1, max_value=6), seed=seeds)
def test_bce_pair_vjp_matches_central_differences(n, seed):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.5).astype(np.float64)
    u = rng.uniform(0.05, 0.95, size=n)   # away from the clamp's kinks
    cot = rng.normal(size=n)
    _, grads = run_graph(lambda t: losses._bce_pair(t, labels), [u], cot)

    def objective(values):
        return float(np.sum(losses._bce_pair(E.constant(values[0]),
                                             labels).value * cot))

    np.testing.assert_allclose(grads[0], central_difference(objective, [u], 0),
                               rtol=1e-5, atol=1e-6)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=1, max_value=6), seed=seeds)
def test_hierarchical_ce_vjp_matches_central_differences(n, seed):
    rng = np.random.default_rng(seed)
    probs = [rng.uniform(0.05, 0.95, size=n) for _ in range(4)]
    labels = random_labels(rng, n)
    cot = np.asarray(rng.normal())
    _, _, grads = hierarchical_graph(losses._hierarchical_ce, probs, labels,
                                     cot)

    def objective(values):
        return float(hierarchical_graph(losses._hierarchical_ce, values,
                                        labels, cot)[0] * cot)

    for i, g in enumerate(grads):
        np.testing.assert_allclose(g, central_difference(objective, probs, i),
                                   rtol=1e-5, atol=1e-6, err_msg=f"input {i}")


@pytest.mark.parametrize("variant", ["MT-HCCAR", "MT-CR", "SEQ",
                                     "MLP-BASELINE"])
def test_training_matches_unfused_loss_nodes(variant, monkeypatch):
    weights, histories = _train(variant)
    with monkeypatch.context() as mp:
        mp.setattr(losses, "_bce_pair", unfused_bce_pair)
        mp.setattr(losses, "_hierarchical_ce", unfused_hierarchical_ce)
        ref_weights, ref_histories = _train(variant)
    assert histories == ref_histories
    assert list(weights) == list(ref_weights)
    for name in weights:
        assert same_bytes(weights[name], ref_weights[name]), name
