"""A scene's rows split over threads: ``forward_chunks`` runs whole
``INFER_CHUNK``-row chunks at the same time, one per usable CPU (the CPUs
over the live BLAS thread count), bitwise the one-CPU result, with every
thread joined before the call returns and memory kept flat; graph-free
``attention_mix`` builds its scores in a reused tile, bitwise the recorded
op."""

import functools
import io
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cloudmtl
from cloudmtl import engine as E
from cloudmtl import workflow
from cloudmtl.data import Standardizer, generate_dataset, get_sensor
from cloudmtl.engine import tensor
from cloudmtl.models import VARIANTS, ArchitectureSpec, build_model, predict
from cloudmtl.models import network
from cloudmtl.models.network import INFER_CHUNK, forward_chunks

ABI_DIM, OCI_DIM = 16, 243
SPLIT = settings(max_examples=100, deadline=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
cpu_counts = st.integers(min_value=2, max_value=4)
EDGE_ROWS = (1, INFER_CHUNK - 1, INFER_CHUNK + 1, 3 * INFER_CHUNK + 7)


def with_cpus(cpus: int, fn):
    with mock.patch.object(network, "usable_cpus", lambda: cpus):
        return fn()


def model_for(variant="MT-HCCAR", input_dim=ABI_DIM, seed=3):
    return build_model(ArchitectureSpec(variant=variant, input_dim=input_dim),
                       seed=seed)


def prediction_bytes(pred) -> list[bytes]:
    return [getattr(pred, f).tobytes() for f in (
        "label", "cloudy", "cot_log10", "cot_raw", "score_cloud",
        "score_clear", "score_liquid", "score_ice")]


def output_bytes(outputs) -> dict:
    return {name: None if t is None else (t.value.shape, t.value.tobytes())
            for name, t in vars(outputs).items()}


# ------------------------------------------------------------ bitwise

@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("input_dim", [ABI_DIM, OCI_DIM])
def test_chunk_threads_are_bitwise_one_cpu(variant, input_dim):
    model = model_for(variant, input_dim)
    X = np.random.default_rng(7).standard_normal((max(EDGE_ROWS), input_dim))
    runs = {
        "eval": lambda n: forward_chunks(
            lambda rows: model.forward(X[:n][rows]), n),
        "train": lambda n: forward_chunks(
            lambda rows: model.forward(X[:n][rows], train_mode=True), n),
    }
    for mode, run in runs.items():
        for n in EDGE_ROWS:
            want = output_bytes(with_cpus(1, lambda: run(n)))
            for cpus in (2, 3, 4):
                got = output_bytes(with_cpus(cpus, lambda: run(n)))
                assert got == want, (mode, n, cpus)


@SPLIT
@given(n=st.integers(1, 3 * INFER_CHUNK + 7), k=st.integers(1, OCI_DIM),
       m=st.integers(1, OCI_DIM), cpus=cpu_counts, seed=seeds)
@example(n=INFER_CHUNK + 1, k=ABI_DIM, m=16, cpus=2, seed=0)
@example(n=3 * INFER_CHUNK + 7, k=OCI_DIM, m=OCI_DIM, cpus=3, seed=1)
def test_dense_chunks_are_bitwise_the_recorded_op(n, k, m, cpus, seed):
    # each chunk's graph-free dense is the recorded op on the same rows
    rng = np.random.default_rng(seed)
    x, w, b = (rng.standard_normal((n, k)), rng.standard_normal((k, m)),
               rng.standard_normal(m))
    want = np.concatenate([E.dense(x[i:i + INFER_CHUNK], w, b).value
                           for i in range(0, n, INFER_CHUNK)])
    got = with_cpus(cpus, lambda: forward_chunks(
        lambda rows: E.dense(x[rows], w, b), n))
    assert got.vjp is None
    assert got.value.tobytes() == want.tobytes()


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
@given(n=st.integers(1, 1100), d=st.integers(1, 24), e=st.integers(1, 24),
       tile=st.sampled_from([1, 2, 7, 64, tensor.ATTENTION_TILE]),
       seed=seeds, bad=st.sampled_from([None, np.inf, -np.inf, np.nan]),
       where=st.sampled_from("qk"), raise_invalid=st.booleans())
@example(n=tensor.ATTENTION_TILE - 1, d=16, e=16, tile=tensor.ATTENTION_TILE,
         seed=0, bad=None, where="q", raise_invalid=False)
@example(n=tensor.ATTENTION_TILE + 1, d=16, e=16, tile=tensor.ATTENTION_TILE,
         seed=0, bad=np.inf, where="q", raise_invalid=False)
@example(n=4 * tensor.ATTENTION_TILE + 1, d=16, e=16,
         tile=tensor.ATTENTION_TILE, seed=0, bad=np.inf, where="q",
         raise_invalid=True)
@example(n=1027, d=16, e=16, tile=tensor.ATTENTION_TILE, seed=1, bad=np.nan,
         where="k", raise_invalid=True)
def test_attention_mix_tiles_are_bitwise_the_recorded_op(
        n, d, e, tile, seed, bad, where, raise_invalid):
    # the graph-free op builds its scores ``tile`` rows at a time; finiteness
    # is decided once over all rows, so every tile takes the same row-max
    # branch
    q, k, v = _attention_operands(n, d, e, seed, bad, where)
    invalid = "raise" if raise_invalid else "warn"

    def recorded():
        with np.errstate(invalid=invalid):
            out = E.attention_mix(q, k, v)
        assert out.vjp is not None
        return out.value.tobytes()

    def tiled():
        with np.errstate(invalid=invalid), E.no_grad(), \
                mock.patch.object(tensor, "ATTENTION_TILE", tile):
            return E.attention_mix(q, k, v).value.tobytes()

    assert _outcome(tiled) == _outcome(recorded)


def test_chunk_threads_join_before_raising_the_lowest_error(monkeypatch):
    # chunks 0-2 are in flight at once: chunk 1 fails first, chunk 0 later,
    # and chunk 2 finishes last; the serial loop would raise chunk 0's error
    monkeypatch.setattr(network, "usable_cpus", lambda: 3)
    in_flight, finished, started = threading.Barrier(3, timeout=30), \
        threading.Event(), []

    def forward(rows):
        i = rows.start // INFER_CHUNK
        started.append(i)
        in_flight.wait()
        if i == 0:
            time.sleep(0.05)
            raise FloatingPointError("chunk 0")
        if i == 1:
            raise ValueError("chunk 1")
        time.sleep(0.1)
        finished.set()

    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="chunk 0"):
        forward_chunks(forward, 4 * INFER_CHUNK)
    assert finished.is_set()
    assert sorted(started) == [0, 1, 2]       # no chunk after a failure
    assert threading.active_count() == before


def test_chunk_threads_keep_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(network, "usable_cpus", lambda: 3)
    in_flight, seen = threading.Barrier(3, timeout=30), []

    def forward(rows):
        in_flight.wait()                      # three threads, one chunk each
        seen.append(np.geterr()["invalid"])
        return E.constant(np.ones((1, 1)))

    with np.errstate(invalid="raise"):
        forward_chunks(forward, 3 * INFER_CHUNK)
    assert seen == ["raise"] * 3


# ------------------------------------------------------------ threads

def test_concurrent_predicts_match_sequential_runs(monkeypatch):
    # four callers with three chunk threads each: more threads than cores
    monkeypatch.setattr(network, "usable_cpus", lambda: 3)
    model = model_for()
    inputs = [np.random.default_rng(i).standard_normal(
        (2 * INFER_CHUNK + 1000 + i, ABI_DIM)) for i in range(4)]
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


@pytest.mark.parametrize("count, parts", [
    (1, 4), (2, 2), (3, 1), (8, 1),
    (4, 1),                                        # BLAS on every CPU
    (None, 1),                                     # no OpenBLAS found
])
def test_usable_cpus_leave_the_live_blas_threads_their_cpus(
        monkeypatch, count, parts):
    monkeypatch.setattr(network.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(network.os, "cpu_count", lambda: 4)
    if count is None:        # the real lookup, in a /proc/self/maps without it
        monkeypatch.setattr(network, "open", lambda *a: io.StringIO(""),
                            raising=False)
        monkeypatch.setattr(network, "_openblas",
                            functools.cache(network._openblas.__wrapped__))
    else:
        monkeypatch.setattr(network, "_openblas", lambda: (lambda: count, None))
    assert network.usable_cpus() == parts


@pytest.mark.parametrize("first_out", [0, 1])
def test_overlapping_one_blas_thread_blocks_restore_the_callers_count(
        monkeypatch, first_out):
    count = [2]                 # a fake BLAS: no real BLAS thread starts
    monkeypatch.setattr(network, "_openblas", lambda: (
        lambda: count[0], lambda n: count.__setitem__(0, n)))
    inside = [threading.Event(), threading.Event()]
    leave = [threading.Event(), threading.Event()]

    def hold(i):
        with network.one_blas_thread():
            inside[i].set()
            leave[i].wait(timeout=60)

    threads = [threading.Thread(target=hold, args=(i,)) for i in (0, 1)]
    for t, entered in zip(threads, inside):
        t.start()
        assert entered.wait(timeout=60) and count == [1]
    leave[first_out].set()
    threads[first_out].join(timeout=60)
    assert count == [1]          # the other block is still inside
    leave[1 - first_out].set()
    threads[1 - first_out].join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert count == [2] and network._blas_holders[0] == 0


def test_one_blas_thread_holds_one_thread_under_many_overlapping_blocks(
        monkeypatch):
    count, inside = [2], []
    monkeypatch.setattr(network, "_openblas", lambda: (
        lambda: count[0], lambda n: count.__setitem__(0, n)))

    def hold():
        for _ in range(200):
            with network.one_blas_thread():
                time.sleep(0)            # lets the other threads in
                inside.append(count[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert inside == [1] * 1600 and count == [2]


def test_blas_lookup_runs_once_and_not_at_import():
    code = ("import cloudmtl.cli; from cloudmtl.models import network as n; "
            "print(n._openblas.cache_info().misses); "
            "[n.usable_cpus() for _ in range(100)]; "
            "print(n._openblas.cache_info().misses)")
    src = os.pathsep.join(filter(None, [
        str(Path(cloudmtl.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["0", "1"]


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    model, X = model_for(), np.random.default_rng(5).standard_normal(
        (2 * INFER_CHUNK + 7, ABI_DIM))
    seen, dense = [], E.dense

    def spy(*args):
        seen.append(threading.active_count())
        return dense(*args)

    monkeypatch.setattr(E, "dense", spy)
    before = threading.active_count()
    monkeypatch.setattr(network, "usable_cpus", lambda: 2)
    two = prediction_bytes(predict(model, X))
    assert max(seen) == before + 1
    seen.clear()
    monkeypatch.setattr(network, "usable_cpus", lambda: 1)
    one = prediction_bytes(predict(model, X))
    assert set(seen) == {before}
    assert one == two
    assert threading.active_count() == before


def test_evaluate_model_starts_one_worker_at_two_cpus(monkeypatch):
    # evaluate_model runs one chunk loop: at 2 usable CPUs it starts one
    # thread beside the caller's, whatever the chunk count
    made = []

    class Counted(threading.Thread):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(network.threading, "Thread", Counted)
    before = threading.active_count()
    monkeypatch.setattr(network, "usable_cpus", lambda: 2)
    ds = generate_dataset(get_sensor("ABI"), 2 * INFER_CHUNK + 37, seed=31)
    workflow.evaluate_model(model_for(), Standardizer.fit(ds.feature_matrix()), ds)
    assert len(made) == 1
    assert threading.active_count() == before


# ------------------------------------------------------------ memory

def test_chunk_threads_keep_scene_scoring_memory_flat(monkeypatch):
    ds = generate_dataset(get_sensor("ABI"), 50_000, seed=32)
    std = Standardizer.fit(ds.feature_matrix())
    model = model_for()
    peaks = {}
    for cpus in (1, 2):
        monkeypatch.setattr(network, "usable_cpus", lambda cpus=cpus: cpus)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            workflow.evaluate_model(model, std, ds)
            peaks[cpus] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peaks[2] <= 1.1 * peaks[1], peaks
