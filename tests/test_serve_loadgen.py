"""The load side: ``closed_loop``'s window, retries and failures on fake
servers, ``LoadRun.row``'s per-class split, the sequential baseline,
and ``assign_classes``'s mapping (the gated benchmark's class mix rests
on it)."""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

from repro.models.simple import small_cnn
from repro.serve import (
    Overloaded,
    SequentialServer,
    assign_classes,
    closed_loop,
)
from repro.serve import loadgen
from repro.tensor.tensor import Tensor, no_grad

MIX = {"interactive": 0.7, "batch": 0.3}
X_POOL = np.arange(5.0)[:, None]


class TestAssignClasses:
    def test_first_twenty_ids_interleave(self):
        by_id = assign_classes(20, MIX)
        assert "".join(by_id[i][0] for i in range(20)) == (
            "ibiibiiibiibiibiiibi"
        )

    def test_every_hundred_holds_thirty_batch_ids(self):
        by_id = assign_classes(1000, MIX)
        for start in range(0, 1000, 100):
            batch = [by_id[i] for i in range(start, start + 100)]
            assert batch.count("batch") == 30

    def test_single_class_takes_every_id(self):
        assert set(assign_classes(150, {"only": 2.0}).values()) == {"only"}

    @pytest.mark.parametrize("mix", [{}, {"a": 0.0, "b": 0.0}])
    def test_empty_or_zero_sum_mix_raises(self, mix):
        with pytest.raises(ValueError):
            assign_classes(10, mix)


def _echo_pool(delay: float = 0.0):
    """A two-thread fake server whose answer to ``x`` is ``2 * x``."""
    pool = ThreadPoolExecutor(2, thread_name_prefix="fake-server")

    def answer(x):
        time.sleep(delay)
        return 2 * x

    return pool, lambda x: pool.submit(answer, x)


def _leave(lock, in_flight, _fut) -> None:
    with lock:
        in_flight[0] -= 1


@pytest.mark.concurrency
class TestClosedLoop:
    def test_window_bounds_requests_in_flight(self):
        pool, submit = _echo_pool(delay=5e-3)
        in_flight, peak = [0], [0]
        lock = threading.Lock()

        def counted(x):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            fut = submit(x)
            fut.add_done_callback(partial(_leave, lock, in_flight))
            return fut

        with pool:
            run = closed_loop(counted, X_POOL, n=40, window=4)
        assert peak[0] == 4
        assert run.window == 4
        assert sorted(run.outputs) == list(range(40))
        for i, out in run.outputs.items():
            assert out == 2 * X_POOL[i % 5]
        assert np.all(run.done >= run.sent)
        assert run.retries.sum() == 0

    def test_window_is_capped_at_n(self):
        pool, submit = _echo_pool()
        with pool:
            assert closed_loop(submit, X_POOL, n=3, window=8).window == 3

    @pytest.mark.parametrize("n, window", [(0, 1), (1, 0)])
    def test_empty_run_or_window_raises(self, n, window):
        with pytest.raises(ValueError):
            closed_loop(lambda x: None, X_POOL, n=n, window=window)

    def test_refusals_retry_the_same_request(self):
        """Each id is refused twice before it is admitted: the loop
        retries that id, never skips it, and counts against it."""
        refused: dict[int, int] = {}
        ids = iter(range(1000))
        pending: list = [None]

        def submit(x):
            i = pending[0] if pending[0] is not None else next(ids)
            if refused.get(i, 0) < 2:
                refused[i] = refused.get(i, 0) + 1
                pending[0] = i
                raise Overloaded("full")
            pending[0] = None
            fut = Future()
            fut.set_result(x)
            return fut

        run = closed_loop(submit, X_POOL, n=6, window=2)
        assert run.retries.tolist() == [2] * 6
        assert run.row("r")["rejected_retries"] == 12
        assert sorted(run.outputs) == list(range(6))

    def test_request_refused_past_the_limit_raises(self, monkeypatch):
        monkeypatch.setattr(loadgen, "STARVE_S", 0.02)

        def submit(x):
            raise Overloaded("always full")

        with pytest.raises(TimeoutError, match="request 0 still refused"):
            closed_loop(submit, X_POOL, n=3, window=1)

    def test_failed_future_raises_with_the_first_error(self):
        boom = RuntimeError("replica died")

        def submit(x):
            fut = Future()
            if x[0] == 3.0:
                fut.set_exception(boom)
            else:
                fut.set_result(x)
            return fut

        with pytest.raises(RuntimeError, match="1 failed") as err:
            closed_loop(submit, X_POOL, n=10, window=2)
        assert err.value.__cause__ is boom

    def test_unanswered_window_raises(self, monkeypatch):
        monkeypatch.setattr(loadgen, "STARVE_S", 0.05)
        with pytest.raises(TimeoutError, match="no answer"):
            closed_loop(lambda x: Future(), X_POOL, n=3, window=2)


def test_row_splits_classes_out_of_one_run():
    classes = assign_classes(50, MIX)
    seen: list = []

    def submit(x, cls):
        seen.append(cls)
        fut = Future()
        fut.set_result(x)
        return fut

    run = closed_loop(submit, X_POOL, n=50, window=3, classes=classes)
    assert seen == [classes[i] for i in range(50)]
    whole = run.row("all")
    parts = {c: run.row(f"all/{c}", only_class=c) for c in MIX}
    assert whole["requests"] == 50 and whole["concurrency"] == 3
    assert parts["batch"]["requests"] == 15
    assert parts["interactive"]["requests"] == 35
    assert parts["batch"]["label"] == "all/batch"
    assert set(whole) == {
        "label", "requests", "concurrency", "throughput_rps",
        "p50_ms", "p95_ms", "p99_ms", "rejected_retries",
    }


@pytest.mark.concurrency
def test_sequential_server_answers_in_eval_mode():
    model = small_cnn(num_classes=10, widths=(4, 8), seed=3)
    X = np.random.default_rng(0).normal(size=(6, 3, 8, 8))
    seq = SequentialServer(model)
    try:
        run = closed_loop(seq.submit, X, n=12, window=4)
        assert not model.training
    finally:
        seq.close()
    assert model.training  # the eval guard is released on close
    model.eval()
    with no_grad():
        for i, out in run.outputs.items():
            want = model(Tensor(X[i % 6][None])).data[0]
            assert np.array_equal(out, want)


@pytest.mark.concurrency
def test_sequential_server_snapshots_each_request():
    """Requests queued behind a busy worker keep their own values when
    the caller reuses one buffer."""
    model = small_cnn(num_classes=10, widths=(4, 8), seed=3)
    X = np.random.default_rng(1).normal(size=(6, 3, 8, 8))
    seq = SequentialServer(model)
    gate = threading.Event()
    try:
        seq._worker.submit(gate.wait, 10.0)  # hold the one worker
        buf = np.empty(X.shape[1:])
        futures = []
        for x in X:
            buf[...] = x
            futures.append(seq.submit(buf))
        buf[...] = 0.0
        gate.set()
        got = [f.result(10.0) for f in futures]
        with no_grad():
            for x, out in zip(X, got):
                assert np.array_equal(out, model(Tensor(x[None])).data[0])
    finally:
        gate.set()
        seq.close()
