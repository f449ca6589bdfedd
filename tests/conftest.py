"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
import signal
import time

import numpy as np
import pytest

#: Hard wall-clock ceiling for tests marked ``concurrency``.  The
#: threaded pipeline runtime has its own stall timeouts, but a bug in
#: those must not be able to hang tier-1: the alarm turns a deadlock
#: into a loud failure.  Override per test with
#: ``@pytest.mark.concurrency(timeout=<seconds>)``.
CONCURRENCY_TIMEOUT = 120


def pytest_addoption(parser):
    parser.addoption(
        "--shuffle-seed", type=int, default=None, metavar="SEED",
        help="run the collected tests in a seeded random order "
             "(order-dependence check; off by default)",
    )


def pytest_report_header(config):
    seed = config.getoption("--shuffle-seed")
    if seed is not None:
        return f"test order shuffled: --shuffle-seed={seed}"


def pytest_collection_modifyitems(config, items):
    seed = config.getoption("--shuffle-seed")
    if seed is not None:
        random.Random(seed).shuffle(items)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("concurrency")
    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    seconds = int(marker.kwargs.get("timeout", CONCURRENCY_TIMEOUT))

    def _timed_out(signum, frame):  # pragma: no cover - only on deadlock
        raise TimeoutError(
            f"concurrency test exceeded the hard {seconds}s timeout — "
            "likely a deadlocked pipeline runtime"
        )

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _jittered(engine, max_sleep: float, seed: int):
    """Randomize worker interleavings: shadow ``forward`` / ``backward``
    on every ``engine.stages[s]`` with a seeded
    ``time.sleep(uniform(0, max_sleep))`` before the real method
    (deterministic schedule of sleeps, nondeterministic OS
    interleaving), and return the engine.

    Thread workers share the parent's stage objects and forked workers
    inherit them, so the shadows are what the workers execute; under
    ``spawn`` the stage is rebuilt in the worker and the shadow does not
    travel.  The sleep falls *inside* the worker's ``busy_seconds``
    window — no jittered test reads busy time.
    """

    def shadow(method, rng):
        def slept(*args, **kwargs):
            time.sleep(rng.uniform(0.0, max_sleep))
            return method(*args, **kwargs)

        return slept

    for s, stage in enumerate(engine.stages):
        rng = np.random.default_rng((seed * 1_000_003 + s) & 0xFFFFFFFF)
        stage.forward = shadow(stage.forward, rng)
        stage.backward = shadow(stage.backward, rng)
    return engine


@pytest.fixture
def jittered():
    return _jittered


@pytest.fixture
def cpu_per_stage(monkeypatch):
    """Every training launch sees a usable CPU per stage, on any host:
    free-running ``pb`` / ``1f1b`` keeps one worker per stage, which it
    runs only with that many (``repro.pipeline.runtime``, "Stage
    groups"), and a grouped launch is ``S`` groups of one stage."""
    from repro.pipeline import runtime

    monkeypatch.setattr(runtime, "usable_cpus", lambda: 1 << 10)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_dataset():
    """A very small, fairly easy synthetic dataset for training tests."""
    from repro.data import make_synthetic

    return make_synthetic(
        name="tiny",
        num_classes=4,
        image_size=8,
        train_size=192,
        val_size=96,
        noise=0.5,
        seed=7,
    )
