"""Row-split ops: under ``forward_chunks``, ``dense`` and ``attention_mix``
compute row slices of their results on threads, bitwise the recorded ops,
with the threads joined before the call returns and memory kept flat."""

import sys
import threading
import time
import tracemalloc
import warnings
from concurrent import futures
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudmtl import engine as E
from cloudmtl import workflow
from cloudmtl.data import Standardizer, generate_dataset, get_sensor
from cloudmtl.engine import tensor
from cloudmtl.models import ArchitectureSpec, build_model, predict
from cloudmtl.models.network import INFER_CHUNK, forward_chunks

ABI_DIM, OCI_DIM = 16, 243
SPLIT = settings(max_examples=100, deadline=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
rows = st.integers(min_value=1, max_value=5000)
parts = st.integers(min_value=2, max_value=4)


def under_forward_chunks(op, cpus: int):
    """``op()``'s value computed inside ``forward_chunks`` with ``cpus``
    usable CPUs, and whether its rows were split: whether some
    ``_split_rows`` call ran ``fill`` two or more times."""
    calls = []

    def spy(fill, n, work):
        ranges = []
        calls.append(ranges)

        def counted(lo, hi):
            ranges.append(lo)
            return fill(lo, hi)

        return split_rows(counted, n, work)

    split_rows = tensor._split_rows
    with mock.patch.object(tensor, "usable_cpus", lambda: cpus), \
            mock.patch.object(tensor, "_split_rows", spy):
        value = forward_chunks(lambda _rows: op(), 1).value
    counts = [len(ranges) for ranges in calls]
    return value, max(counts, default=1) >= 2


def expect_split(n: int, work: int, cpus: int) -> bool:
    return min(cpus, n // 2, work // tensor.SPLIT_MIN) >= 2


def model_for(variant="MT-HCCAR", input_dim=ABI_DIM, seed=3):
    return build_model(ArchitectureSpec(variant=variant, input_dim=input_dim),
                       seed=seed)


def prediction_bytes(pred) -> list[bytes]:
    return [getattr(pred, f).tobytes() for f in (
        "label", "cloudy", "cot_log10", "cot_raw", "score_cloud",
        "score_clear", "score_liquid", "score_ice")]


# ------------------------------------------------------------ bitwise ops

@SPLIT
@given(n=rows, k=st.integers(1, OCI_DIM), m=st.integers(1, OCI_DIM),
       cpus=parts, seed=seeds)
@example(n=4095, k=ABI_DIM, m=16, cpus=2, seed=0)   # one row short of a split
@example(n=4096, k=ABI_DIM, m=16, cpus=2, seed=0)
@example(n=269, k=OCI_DIM, m=OCI_DIM, cpus=2, seed=1)
@example(n=4097, k=OCI_DIM, m=128, cpus=3, seed=2)
def test_dense_split_is_bitwise_the_recorded_op(n, k, m, cpus, seed):
    rng = np.random.default_rng(seed)
    x, w, b = (rng.standard_normal((n, k)), rng.standard_normal((k, m)),
               rng.standard_normal(m))
    want = E.dense(x, w, b)
    assert want.vjp is not None
    got, split = under_forward_chunks(lambda: E.dense(x, w, b), cpus)
    assert split == (m % tensor.SPLIT_WIDTH == 0
                     and expect_split(n, n * m, cpus))
    assert got.tobytes() == want.value.tobytes()


def _attention_operands(n, d, e, seed, bad, where):
    rng = np.random.default_rng(seed)
    q, k, v = (rng.standard_normal((n, d)), rng.standard_normal((n, e)),
               rng.standard_normal((n, e)))
    if bad is not None:
        target = q if where == "q" else k
        target[rng.integers(n), rng.integers(target.shape[1])] = bad
    return q, k, v


def _outcome(op):
    """``op()``'s value bytes or exception type, and its warning messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = op()
        except FloatingPointError as err:
            value = type(err)
    return value, {(w.category, str(w.message)) for w in caught}


@SPLIT
@given(n=rows, d=st.integers(1, 24), e=st.integers(1, 24), cpus=parts,
       seed=seeds, bad=st.sampled_from([None, np.inf, -np.inf, np.nan]),
       where=st.sampled_from("qk"), raise_invalid=st.booleans())
@example(n=255, d=16, e=16, cpus=2, seed=0, bad=None, where="q",
         raise_invalid=False)                           # one row short
@example(n=2049, d=16, e=16, cpus=2, seed=0, bad=np.inf, where="q",
         raise_invalid=False)
@example(n=2049, d=16, e=16, cpus=3, seed=0, bad=np.inf, where="q",
         raise_invalid=True)
@example(n=4999, d=16, e=16, cpus=2, seed=1, bad=np.nan, where="k",
         raise_invalid=True)
def test_attention_mix_split_is_bitwise_the_recorded_op(
        n, d, e, cpus, seed, bad, where, raise_invalid):
    # finiteness is decided once over all rows, so every part takes the
    # same row-max branch; numpy's error state holds in the workers
    q, k, v = _attention_operands(n, d, e, seed, bad, where)
    invalid = "raise" if raise_invalid else "warn"

    def recorded():
        with np.errstate(invalid=invalid):
            out = E.attention_mix(q, k, v)
        assert out.vjp is not None
        return out.value.tobytes()

    def split():
        def op():
            with np.errstate(invalid=invalid):
                return E.attention_mix(q, k, v)
        value, was_split = under_forward_chunks(op, cpus)
        assert was_split == expect_split(n, n * d * e, cpus)
        return value.tobytes()

    assert _outcome(split) == _outcome(recorded)


def test_split_collects_every_worker_before_raising():
    finished = threading.Event()

    def fill(lo, hi):
        if lo == 0:
            raise FloatingPointError("first part")
        time.sleep(0.05)
        finished.set()

    with mock.patch.object(tensor, "usable_cpus", lambda: 2), E.no_grad():
        with pytest.raises(FloatingPointError, match="first part"):
            tensor._split_rows(fill, 10, 2 * tensor.SPLIT_MIN)
        assert finished.is_set()


# ------------------------------------------------------------ threads

def test_concurrent_predicts_match_sequential_runs(monkeypatch):
    monkeypatch.setattr(tensor, "usable_cpus", lambda: 2)
    model = model_for()
    inputs = [np.random.default_rng(i).standard_normal(
        (INFER_CHUNK + 1000 + i, ABI_DIM)) for i in range(4)]
    want = [prediction_bytes(predict(model, X)) for X in inputs]
    got = [None] * len(inputs)

    def run(i):
        got[i] = prediction_bytes(predict(model, inputs[i]))

    before = threading.active_count()
    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want
    assert threading.active_count() == before
    # each thread's no_grad was its own: this thread still records
    a = E.constant(np.ones(3))
    assert E.add(a, a).vjp is not None


@pytest.mark.parametrize("env, parts", [
    ({}, 1),                                       # BLAS takes every CPU
    ({"OPENBLAS_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "3"}, 1),
    ({"OPENBLAS_NUM_THREADS": "8"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4),
    ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
    ({"OMP_NUM_THREADS": "one"}, 1),
])
def test_usable_cpus_leave_blas_threads_their_cpus(monkeypatch, env, parts):
    monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    for var in tensor.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert tensor.usable_cpus() == parts


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    model, X = model_for(), np.random.default_rng(5).standard_normal(
        (2 * INFER_CHUNK + 7, ABI_DIM))
    seen, dense = [], E.dense

    def spy(*args):
        seen.append(threading.active_count())
        return dense(*args)

    monkeypatch.setattr(E, "dense", spy)
    before = threading.active_count()
    monkeypatch.setattr(tensor, "usable_cpus", lambda: 2)
    two = prediction_bytes(predict(model, X))
    assert max(seen) == before + 1
    seen.clear()
    monkeypatch.setattr(tensor, "usable_cpus", lambda: 1)
    one = prediction_bytes(predict(model, X))
    assert set(seen) == {before}
    assert one == two
    assert threading.active_count() == before


def test_nested_forward_chunks_share_one_executor(monkeypatch):
    # evaluate_model's chunk loop calls Model.infer, itself a chunk loop
    made = []

    class Counted(futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(tensor, "usable_cpus", lambda: 2)
    ds = generate_dataset(get_sensor("ABI"), 2 * INFER_CHUNK + 37, seed=31)
    before = threading.active_count()
    workflow.evaluate_model(model_for(), Standardizer.fit(ds.feature_matrix()), ds)
    assert len(made) == 1
    assert threading.active_count() == before


# ------------------------------------------------------------ memory

def test_split_scene_scoring_memory_stays_flat(monkeypatch):
    ds = generate_dataset(get_sensor("ABI"), 50_000, seed=32)
    std = Standardizer.fit(ds.feature_matrix())
    model = model_for()
    peaks = {}
    for cpus in (1, 2):
        monkeypatch.setattr(tensor, "usable_cpus", lambda cpus=cpus: cpus)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            workflow.evaluate_model(model, std, ds)
            peaks[cpus] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peaks[2] <= 1.1 * peaks[1], peaks
