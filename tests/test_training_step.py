"""What one training step allocates: the flat gradient buffer and graph size.

``ParamStore.flat_grad`` binds every parameter's ``grad`` to a view of one
flat vector, copying in a grad that is not its view (set by hand, None, or
bound by another store sharing the tensor); ``zero_grads`` fills that
vector, ``backward`` adds into the views in place, and ``optimizer_step``
reads the vector and nothing else. The graph size of one training step is
pinned per variant.
"""

import numpy as np
import pytest

import cloudmtl.engine as E
from cloudmtl.data import Standardizer, generate_dataset, get_sensor
from cloudmtl.engine import AdamState, ParamStore, TrainConfig, optimizer_step
from cloudmtl.models import (
    VARIANTS, ArchitectureSpec, LossTargets, SequentialModel, build_model,
    compute_loss,
)
from cloudmtl.models.config import SEQ_STAGES
from cloudmtl.models.losses import stage_loss


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def small_store() -> ParamStore:
    rng = np.random.default_rng(0)
    ps = ParamStore()
    for name, shape in {"a.w": (3, 4), "a.b": (4,), "c": (2, 2), "s": ()}.items():
        ps.add(name, rng.normal(size=shape))
    return ps


def assert_grads_are_views(ps: ParamStore, flat: np.ndarray) -> None:
    """Every grad of ``ps`` is its view of ``flat``, in parameter order."""
    for (name, t), view in zip(ps.items(), ps.views(flat)):
        assert t.grad.base is flat, name
        assert t.grad.shape == view.shape, name
        assert (t.grad.__array_interface__["data"][0]
                == view.__array_interface__["data"][0]), name


def test_every_grad_is_a_view_of_one_vector():
    ps = small_store()
    ps.zero_grads()
    flat = ps.flat_grad()
    assert flat.shape == (ps.param_count(),)
    assert_grads_are_views(ps, flat)
    offset = 0
    for _, t in ps.items():
        t.grad[...] = offset + 1.0
        assert np.all(flat[offset:offset + t.value.size] == offset + 1.0)
        offset += t.value.size


def test_zero_grads_zeroes_the_vector_in_place_and_rebinds_the_views():
    ps = small_store()
    ps.zero_grads()
    flat = ps.flat_grad()
    E.backward(E.l1_norm(ps.tensors()))
    assert np.any(flat != 0.0)
    ps["c"].grad = np.ones((2, 2))       # hand-set: not a view
    ps["s"].grad = None
    ps.zero_grads()
    assert ps.flat_grad() is flat
    assert np.all(flat == 0.0)
    assert_grads_are_views(ps, flat)


def test_flat_grad_copies_in_grads_that_are_not_its_views():
    ps = small_store()
    flat = ps.flat_grad()
    hand = {"a.w": np.full((3, 4), 2.0), "c": np.arange(4.0).reshape(2, 2)}
    for name, g in hand.items():
        ps[name].grad = g.copy()
    ps["s"].grad = None
    assert ps.flat_grad() is flat
    assert_grads_are_views(ps, flat)
    for name, t in ps.items():
        assert same_bytes(t.grad, hand.get(name, np.zeros_like(t.value))), name


def test_backward_accumulates_into_the_views_in_place():
    ps = small_store()
    ps.zero_grads()
    flat = ps.flat_grad()
    for _ in range(2):
        E.backward(E.l1_norm(ps.tensors()))
    assert ps.flat_grad() is flat
    for _, t in ps.items():
        assert same_bytes(t.grad, 2.0 * np.sign(t.value))


def test_registering_a_parameter_rebuilds_the_vector():
    ps = small_store()
    ps.zero_grads()
    old = ps.flat_grad()
    E.backward(E.l1_norm(ps.tensors()))
    kept = {name: t.grad.copy() for name, t in ps.items()}
    late = ps.add("late", np.ones(3))
    flat = ps.flat_grad()
    assert flat is not old and flat.shape == (ps.param_count(),)
    assert_grads_are_views(ps, flat)
    for name, g in kept.items():
        assert same_bytes(ps[name].grad, g), name
    assert same_bytes(late.grad, np.zeros(3))


@pytest.mark.parametrize("clip_norm", [None, 0.5])
def test_hand_set_grads_step_as_in_place_grads(clip_norm):
    rng = np.random.default_rng(1)
    flat_ps, hand_ps = small_store(), small_store()
    flat_state, hand_state = AdamState(), AdamState()
    cfg = TrainConfig(lr=3e-3, clip_norm=clip_norm)
    for _ in range(4):
        grads = {name: rng.normal(size=t.value.shape)
                 for name, t in flat_ps.items()}
        grads["s"] = np.zeros(())        # stands for hand_ps's None grad
        flat_ps.zero_grads()
        for name, t in flat_ps.items():
            t.grad[...] = grads[name]
        for name, t in hand_ps.items():
            t.grad = None if name == "s" else grads[name].copy()
        kept = flat_ps.flat_grad().copy()
        optimizer_step(flat_ps, cfg, flat_state)
        optimizer_step(hand_ps, cfg, hand_state)
        assert same_bytes(flat_ps.flat_grad(), kept)   # the step only reads it
        assert_grads_are_views(hand_ps, hand_ps.flat_grad())
        assert same_bytes(hand_ps.flat_grad(), kept)
        for (name, a), (_, b) in zip(flat_ps.items(), hand_ps.items()):
            assert same_bytes(a.value, b.value), name
        assert same_bytes(flat_state.m, hand_state.m)
        assert same_bytes(flat_state.v, hand_state.v)


def _batch(variant: str):
    """A spec of ``variant`` and the targets of one 64-pixel ABI batch."""
    ds = generate_dataset(get_sensor("ABI"), 64, seed=7)
    feats = Standardizer.fit(ds.feature_matrix()).transform(ds.feature_matrix())
    spec = ArchitectureSpec(variant=variant, input_dim=feats.shape[1])
    return spec, LossTargets.from_dataset(ds, feats, spec.bins)


def test_seq_aliased_stores_step_the_same_through_either_buffer():
    spec, targets = _batch("SEQ")
    model = build_model(spec, seed=2)
    mask = model.subnet_params["mask_net"]
    for name, t in mask.items():
        assert model.params[f"mask_net.{name}"] is t
    cfg = TrainConfig(lr=3e-3)
    init = model.params.clone_values()

    def mask_step(zero_store):
        model.params.load_values(init)
        zero_store.zero_grads()
        out = model.stage_output("mask_net", targets.x)
        total, _ = stage_loss("mask_net", out, targets, spec, mask)
        E.backward(total)
        optimizer_step(mask, cfg, AdamState())
        assert_grads_are_views(mask, mask.flat_grad())
        return mask.clone_values()

    # Zeroing through either store, in turn: each store's zero_grads must
    # first take back the grads the other store bound, which hold the last
    # step's (nonzero) gradients.
    own = mask_step(mask)
    for zero_store in (model.params, mask, model.params):
        stepped = mask_step(zero_store)
        for name in own:
            assert same_bytes(own[name], stepped[name]), name


def _graph_size(root) -> tuple[int, int]:
    """(nodes reachable from root through parents, nodes holding a grad)."""
    seen, stack, grads = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        grads += node.grad is not None
        stack.extend(node.parents)
    return len(seen), grads


#: (graph nodes, nodes holding a grad) of one training step's loss, after
#: backward; SEQ lists its three stages
STEP_GRAPH = {
    "MLP-BASELINE": (38, 9),
    "MT-CR": (72, 26),
    "MT-HCR": (76, 30),
    "MT-HCCR": (89, 34),
    "MT-HCCAR": (103, 38),
    "SEQ": ((33, 12), (33, 12), (31, 14)),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_graph_size_of_one_training_step(variant):
    assert set(STEP_GRAPH) == set(VARIANTS)
    spec, targets = _batch(variant)
    model = build_model(spec, seed=2)
    if isinstance(model, SequentialModel):
        sizes = []
        for net in SEQ_STAGES:
            params = model.subnet_params[net]
            total, _ = stage_loss(net, model.stage_output(net, targets.x),
                                  targets, spec, params)
            params.zero_grads()
            E.backward(total)
            sizes.append(_graph_size(total))
        assert tuple(sizes) == STEP_GRAPH[variant]
    else:
        outputs = model.forward(targets.x, train_mode=True)
        total, _ = compute_loss(outputs, targets, spec, model.params)
        model.params.zero_grads()
        E.backward(total)
        assert _graph_size(total) == STEP_GRAPH[variant]
