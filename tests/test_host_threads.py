"""Thread-hosted stage workers run on long-lived per-slot host threads.

``pipeline/worker.py`` ("What a host decides") leases stage slot ``s`` of
a thread-hosted ``WorkerGroup`` an idle host thread for its slot name
instead of starting a thread per launch, so that glibc's per-thread
malloc arenas stop rotating between stages of different width.  These
tests pin the lease contract — one OS thread per slot across launches,
never two live workers on one host, the worker's name while it runs and
an idle name afterwards, nothing of the previous tenant left behind, a
fresh pool after ``fork`` — and the claim itself: own-process RSS stays
flat over repeated ``train()`` calls.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import textwrap
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.models.simple import small_cnn
from repro.pipeline import ConcurrentPipelineRunner, PipelineRuntimeError
from repro.pipeline import inference
from repro.pipeline import runtime as runtime_module
from repro.pipeline import worker as worker_module
from repro.serve import InferenceSession
from repro.tensor import grad_enabled, ops_conv
from repro.tensor.tensor import _GRAD

REPO = Path(__file__).resolve().parent.parent
SHAPE = (3, 8, 8)

pytestmark = pytest.mark.concurrency


def _stream(n: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n,) + SHAPE), rng.integers(0, 4, size=n)


def _runner(**kw) -> ConcurrentPipelineRunner:
    kw.setdefault("stall_timeout", 30)
    return ConcurrentPipelineRunner(
        small_cnn(num_classes=4, seed=7), lr=0.05, mode="pb", lockstep=False,
        **kw,
    )


def _session() -> InferenceSession:
    return InferenceSession(
        small_cnn(num_classes=4, seed=7), runtime="threaded", micro_batch=2,
        sample_shape=SHAPE,
    )


def _worker_threads() -> list[str]:
    return [
        t.name for t in threading.enumerate()
        if t.name.startswith(("pipeline-stage-", "infer-stage-"))
    ]


#: the lanes of every serving stream here
LANES = 2


@pytest.fixture(autouse=True)
def fixed_slots(monkeypatch, cpu_per_stage):
    """Serving streams here run a fixed number of lanes, and free-running
    ``pb`` one worker per stage: slots sized by the host's CPUs would
    differ on every machine, and these tests pin the lease per slot."""
    monkeypatch.setattr(inference, "usable_cpus", lambda: LANES)


def _record(stages, seen: dict, before=None) -> None:
    """Shadow every ``stage.forward`` (the ``conftest.py`` idiom: thread
    workers run the parent's stage objects) to note which OS thread runs
    slot ``s`` and under which name.  Calls on the recording thread
    itself — a stream's layout probe at open — are not a worker's."""
    opener = threading.get_ident()

    def shadow(s, method):
        def recorded(*args, **kwargs):
            if threading.get_ident() == opener:
                return method(*args, **kwargs)
            seen.setdefault(s, set()).add(
                (threading.get_ident(), threading.current_thread().name)
            )
            if before is not None:
                before(s)
            return method(*args, **kwargs)

        return recorded

    for s, stage in enumerate(stages):
        stage.forward = shadow(s, stage.forward)


def _serve(stream, n_packets: int = 4) -> None:
    X = np.random.default_rng(0).normal(size=(2,) + SHAPE)
    got, pid = 0, 0
    deadline = time.monotonic() + 30.0
    while got < n_packets and time.monotonic() < deadline:
        if pid < n_packets and stream.submit(pid, pid, X):
            pid += 1
        got += len(stream.poll())
    assert got == n_packets


def _wait_until(predicate, seconds: float = 10.0) -> bool:
    deadline = time.monotonic() + seconds
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    return True


class TestDispatchRule:
    """Which launches run stage groups: a synchronous schedule, and
    free-running ``pb`` short of a CPU per stage, is cut into one group
    per usable CPU, each leasing one host named after its first stage;
    free-running ``pb`` with a CPU per stage keeps one host per stage."""

    @staticmethod
    def _leases(monkeypatch) -> list[str]:
        leased: list[str] = []
        real = worker_module._HostThread.lease.__func__

        def lease(cls, slot):
            leased.append(slot)
            return real(cls, slot)

        monkeypatch.setattr(
            worker_module._HostThread, "lease", classmethod(lease)
        )
        return leased

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_gpipe_leases_one_host_per_cpu(self, monkeypatch, cpus):
        monkeypatch.setattr(runtime_module, "usable_cpus", lambda: cpus)
        leased = self._leases(monkeypatch)
        runner = ConcurrentPipelineRunner(
            small_cnn(num_classes=4, seed=7), lr=0.05, mode="gpipe",
            update_size=4, micro_batch_size=2, stall_timeout=30,
        )
        seen: dict = {}
        _record(runner.stages, seen)
        stats = runner.train(*_stream(8))
        groups = stats.control["groups"]
        assert len(groups) == cpus
        assert [s for g in groups for s in g] == list(range(runner.num_stages))
        assert leased == [f"pipeline-stage-{g[0]}" for g in groups]
        # every stage ran on its group's host, under the group's name
        for g in groups:
            runs = set().union(*(seen.get(s, set()) for s in g))
            assert {name for _, name in runs} == {f"pipeline-stage-{g[0]}"}
        assert not _worker_threads()

    def test_free_running_pb_needs_a_cpu_per_stage(self, monkeypatch):
        """Short of a CPU per stage, free-running ``pb`` is one group
        per CPU too; with one per stage it keeps one host per stage."""
        leased = self._leases(monkeypatch)
        runner = _runner()
        S = runner.num_stages
        for cpus in (1, 2, S):
            monkeypatch.setattr(runtime_module, "usable_cpus", lambda: cpus)
            del leased[:]
            stats = runner.train(*_stream(6))
            groups = stats.control["groups"]
            assert leased == [f"pipeline-stage-{g[0]}" for g in groups]
            assert len(groups) == cpus
            assert stats.mode == ("free_running" if cpus == S else "lockstep")


class TestOneHostPerSlot:
    def test_train_calls_reuse_one_thread_per_slot(self):
        X, Y = _stream(6)
        runner = _runner()
        seen: dict = {}
        _record(runner.stages, seen)
        for _ in range(5):
            runner.train(X, Y)
        assert sorted(seen) == list(range(len(runner.stages) - 1))
        for s, runs in seen.items():
            # one ident, and it carried the worker's name while it ran
            assert len(runs) == 1, (s, runs)
            assert {name for _, name in runs} == {f"pipeline-stage-{s}"}
        idents = {ident for runs in seen.values() for ident, _ in runs}
        assert len(idents) == len(seen)
        assert not _worker_threads()

    def test_consecutive_streams_reuse_one_thread_per_slot(self):
        session = _session()
        seen: dict = {}
        _record(session.stages, seen)
        for _ in range(2):
            with session.open_stream() as stream:
                assert len(_worker_threads()) == LANES
                _serve(stream)
        # a lane runs every stage: one host per lane name, the same one
        # in both streams
        hosts: dict = {}
        for ident, name in set().union(*seen.values()):
            hosts.setdefault(name, set()).add(ident)
        names = {f"infer-stage-{w}" for w in range(LANES)}
        assert hosts and set(hosts) <= names
        assert all(len(idents) == 1 for idents in hosts.values()), hosts
        assert not _worker_threads()

    def test_live_groups_never_share_a_host(self):
        """Two streams open at once lease two hosts per slot; an engine
        training meanwhile leases its own (another slot name)."""
        first, second, runner = _session(), _session(), _runner()
        seen = {"first": {}, "second": {}, "train": {}}
        _record(first.stages, seen["first"])
        _record(second.stages, seen["second"])
        _record(runner.stages, seen["train"])
        with first.open_stream() as a, second.open_stream() as b:
            _serve(a)
            _serve(b)
            runner.train(*_stream(6))
            _serve(a)
        idents = {
            who: {ident for runs in slots.values() for ident, _ in runs}
            for who, slots in seen.items()
        }
        assert all(idents.values())
        assert not idents["first"] & idents["second"]
        assert not idents["train"] & (idents["first"] | idents["second"])
        assert not _worker_threads()


def test_concurrent_launchers_never_lose_a_lease():
    """More launchers than cores lease and return hosts at once, under a
    short switch interval: a worker handed to a host that never ran it
    would stall its run; a host leased twice or never returned would
    be missing from the pool, or in it twice, afterwards."""
    launchers, calls = 4, 6
    runners = [_runner(stall_timeout=20) for _ in range(launchers)]
    done = [0] * launchers
    errors: list = []

    def launch(k: int) -> None:
        X, Y = _stream(4, seed=k)
        try:
            for _ in range(calls):
                done[k] += runners[k].train(X, Y).samples
        except BaseException as exc:  # reported below, on the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=launch, args=(k,)) for k in range(launchers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(90.0)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert not any(t.is_alive() for t in threads)
    assert done == [4 * calls] * launchers
    assert not _worker_threads()
    hosts = [
        t.name for t in threading.enumerate()
        if t.name.startswith("idle-pipeline-stage-")
    ]
    idle = worker_module._idle_hosts
    assert sorted(hosts) == sorted(
        f"idle-{slot}" for slot, parked in idle.items()
        if slot.startswith("pipeline-stage-") for _ in parked
    )  # every host is back in the pool, exactly once


class TestNamesAfterTeardown:
    def test_no_worker_name_after_a_worker_error(self):
        runner = _runner()

        def broken(pid, payload, train=True):
            raise ValueError("injected stage failure")

        runner.stages[1].forward = broken
        with pytest.raises(PipelineRuntimeError):
            runner.train(*_stream(6))
        assert not _worker_threads()
        # the hosts are back in the pool: the next run is served
        del runner.stages[1].forward
        assert runner.train(*_stream(6)).samples == 6

    def test_no_worker_name_after_a_launch_failure_midway(self, monkeypatch):
        """Slots 0 and 1 are running when slot 2 fails to launch: the
        constructor tears the started ones down and their hosts go idle."""
        real = worker_module._HostThread.lease.__func__

        def flaky(cls, slot):
            if slot.endswith("-2"):
                raise OSError("injected launch failure")
            return real(cls, slot)

        monkeypatch.setattr(
            worker_module._HostThread, "lease", classmethod(flaky)
        )
        runner = _runner()
        with pytest.raises(OSError, match="injected launch failure"):
            runner.train(*_stream(6))
        assert not _worker_threads()
        monkeypatch.undo()
        assert runner.train(*_stream(6)).samples == 6
        assert not _worker_threads()


class TestStuckWorkerKeepsItsHost:
    def test_host_is_not_leased_until_its_worker_returns(self):
        stuck = _runner(stall_timeout=0.3)
        release = threading.Event()
        blocked: list[int] = []
        original = stuck.stages[1].forward

        def blocking_forward(pid, payload, train=True):
            blocked.append(threading.get_ident())
            release.wait(30.0)
            return original(pid, payload, train)

        stuck.stages[1].forward = blocking_forward
        try:
            # reported as before: the run stalls out, the thread lives on
            with pytest.raises(RuntimeError, match="stalled"):
                stuck.train(*_stream(4))
            assert _worker_threads() == ["pipeline-stage-1"]
            # same slot name, but its host is still occupied
            other = _runner()
            seen: dict = {}
            _record(other.stages, seen)
            other.train(*_stream(6))
            (ident, _), = seen[1]
            assert ident != blocked[0]
        finally:
            release.set()
        # the worker observes the abort flag and ends; only then is the
        # host idle (and renamed) again
        assert _wait_until(lambda: not _worker_threads())
        idle = worker_module._idle_hosts["pipeline-stage-1"]
        assert _wait_until(
            lambda: blocked[0] in [h.thread.ident for h in idle]
        )


class TestNothingLeftBehind:
    def test_scratch_is_empty_on_the_host_after_the_run(self):
        runner = _runner()
        held: dict = {}
        for s, stage in enumerate(runner.stages):
            if stage.spec.kind != "compute":
                continue

            def shadow(s=s, method=stage.backward):
                def recorded(*args, **kwargs):
                    out = method(*args, **kwargs)
                    # the host thread's own dict, and what it held then
                    buffers = ops_conv._scratch._buffers
                    held[s] = (buffers, len(buffers))
                    return out

                return recorded

            stage.backward = shadow()
        runner.train(*_stream(6))
        assert any(count for _, count in held.values())  # conv stages
        assert all(not buffers for buffers, _ in held.values())

    def test_idle_hosts_pin_nothing_of_the_run(self):
        """The loss slot's spec holds the labels; once the run is over no
        parked host may still reference it."""
        X, Y = _stream(6)
        _runner().train(X, Y)
        labels = weakref.ref(Y)
        del Y
        gc.collect()
        assert labels() is None

    @pytest.mark.parametrize("tenant", ["serving", "training"])
    def test_each_tenant_starts_in_its_own_grad_mode(self, tenant):
        """A tenant that flips grad mode on its hosts hands the next
        tenant nothing: a training worker runs with grad mode on, a
        forward-only one with it off (it builds no autodiff graph)."""

        def flip(s):
            _GRAD.enabled = not _GRAD.enabled  # this host thread's

        def tenant_run(before):
            seen: dict = {}
            if tenant == "serving":
                session = _session()
                _record(session.stages, seen, before=before)
                with session.open_stream() as stream:
                    _serve(stream)
            else:
                runner = _runner()
                _record(runner.stages, seen, before=before)
                runner.train(*_stream(6))
            return seen

        first_seen = tenant_run(flip)
        modes: dict = {}
        next_seen = tenant_run(lambda s: modes.setdefault(s, grad_enabled()))
        # same hosts, so the mode the first tenant left was really there
        assert first_seen == next_seen
        assert modes and set(modes.values()) == {tenant == "training"}


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs to tell a pinned worker from a free one",
)
def test_worker_runs_on_its_launchers_cpus():
    """A thread started per launch inherited its creator's CPU affinity
    (the benchmark pins thread-backed phases to one CPU, another each
    pass); a leased host must not keep the affinity of the launch that
    created it."""
    allowed = os.sched_getaffinity(0)
    runner = _runner()
    cpus: list = []
    _record(
        runner.stages, {}, before=lambda s: cpus.append(os.sched_getaffinity(0))
    )
    try:
        for pin in ({min(allowed)}, {max(allowed)}, allowed):
            os.sched_setaffinity(0, pin)
            del cpus[:]
            runner.train(*_stream(4))
            assert cpus and all(seen == pin for seen in cpus), (pin, cpus)
    finally:
        os.sched_setaffinity(0, allowed)


def _run(script: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        timeout=timeout, capture_output=True, text=True,
    )


_PRELUDE = """
    import os, sys
    import numpy as np
    from repro.models.simple import small_cnn
    from repro.pipeline import ConcurrentPipelineRunner
    from repro.pipeline import runtime, worker

    # one host thread per stage: free-running pb needs a CPU per stage
    runtime.usable_cpus = lambda: 1 << 10

    def runner(widths=(8, 16)):
        return ConcurrentPipelineRunner(
            small_cnn(num_classes=10, widths=widths, seed=3), lr=0.01,
            momentum=0.9, mode="pb", lockstep=False, stall_timeout=20,
        )

    rng = np.random.default_rng(0)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_leases_fresh_hosts():
    """The child has none of the parent's (idle) host threads, and may
    inherit the pool's lock held: it must start its own, not wait."""
    proc = _run(_PRELUDE + """
    X, Y = rng.normal(size=(6, 3, 8, 8)), rng.integers(0, 10, size=6)
    engine = runner()
    engine.train(X, Y)
    assert worker._idle_hosts
    worker._hosts_lock.acquire()  # as if another thread were mid-lease
    pid = os.fork()
    if pid == 0:
        assert not worker._idle_hosts
        engine.train(X, Y)
        os._exit(0 if engine.samples_completed == 12 else 3)
    worker._hosts_lock.release()
    _, status = os.waitpid(pid, 0)
    engine.train(X, Y)
    sys.exit(os.waitstatus_to_exitcode(status))
    """, timeout=60.0)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/status"
)
def test_rss_stays_flat_over_repeated_train_calls():
    """The claim itself.  With a thread per launch, glibc hands each new
    thread whichever arena an exited one left, every arena ends up having
    hosted the widest stage, and own-process RSS climbs round over round
    (about +56 MiB here before host threads, about +15 with them)."""
    proc = _run(_PRELUDE + """
    def rss():
        for line in open("/proc/self/status"):
            if line.startswith("VmRSS"):
                return int(line.split()[1]) / 1024

    # what any real set-up has done by now (a dataset-sized temporary):
    # freeing a large block raises glibc's mmap and trim thresholds, and
    # arenas stop handing freed memory back
    big = np.empty(24 << 20, dtype=np.uint8)
    del big
    X, Y = rng.normal(size=(160, 3, 16, 16)), rng.integers(0, 10, size=160)
    engine = runner(widths=(32, 64))
    series = [rss()]
    for _ in range(6):
        for c in range(20):
            engine.train(X[8 * c : 8 * c + 8], Y[8 * c : 8 * c + 8])
        series.append(rss())
    print(" ".join(f"{r:.1f}" for r in series))
    """)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    series = [float(v) for v in proc.stdout.split()]
    assert series[6] <= series[0] + 25.0, series
    assert abs(series[6] - series[3]) <= 2.0, series
