"""Stage groups: a worker that hosts a contiguous run of stages is the
simulator, bit for bit.

A grouped launch cuts the stages into ``K = min(S, usable CPUs)``
contiguous groups, one worker each (``repro.pipeline.runtime``, "Stage
groups").  Every lockstep run, every run of a synchronous schedule and
every free-running ``pb`` / ``1f1b`` request short of a CPU per stage is
grouped, so for each schedule × host × ``K`` — steered by patching
``runtime.usable_cpus`` — the losses, every stage's weights,
velocity, previous weights and BatchNorm buffers, its update count and
its ``version_trace`` must equal the simulator's to the bit.  A deep
residual net cut inside its skip connections checks the boundary slots
and the channel sizing the deadlock-freedom argument rests on
(``repro.pipeline.worker``, "The loop").
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.models.resnet import resnet_tiny
from repro.pipeline import (
    PipelineExecutor,
    contiguous_partition,
    make_pipeline_engine,
)
from repro.pipeline import runtime as runtime_module
from repro.pipeline.stage import STATE_ARRAYS
from repro.pipeline.transport import probe_boundary_layouts

from test_stage_state import BN_FACTORY

pytestmark = pytest.mark.concurrency

HOSTS = ("threaded", "process")
SCHEDULES = {
    "pb": dict(mode="pb"),
    "1f1b": dict(mode="1f1b"),
    "fill_drain": dict(mode="fill_drain", update_size=4),
    "gpipe": dict(mode="gpipe", update_size=4, micro_batch_size=2),
}
#: "S": one stage per group, the old worker per stage
WIDTHS = (1, 2, "S")
LR = 0.05


def _decay(done: int) -> float:
    return LR / (1.0 + 0.1 * done)


def _stream(n: int, seed: int = 5):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3, 8, 8)), rng.integers(0, 4, size=n)


def _fingerprint(engine, stats) -> dict:
    """Everything a run leaves behind, as bytes."""
    return {
        "losses": stats.losses.tobytes(),
        "updates": list(stats.updates_per_stage),
        "stages": [
            (
                [[a.tobytes() for a in state[key]] for key in STATE_ARRAYS],
                state["updates_applied"],
                list(stage.version_trace),
            )
            for stage, state in (
                (st, st.state_dict()) for st in engine.stages
            )
        ],
    }


def _pair(monkeypatch, factory, runtime, width, lockstep, kw, n, calls=1):
    """The simulator's and a grouped engine's fingerprints after
    ``calls`` consecutive ``train()`` calls of ``n`` samples each."""
    S = factory().num_stages
    k = S if width == "S" else width
    monkeypatch.setattr(runtime_module, "usable_cpus", lambda: k)
    common = dict(lr=LR, momentum=0.9, record_versions=True, **kw)
    sim = PipelineExecutor(factory(), **common)
    engine = make_pipeline_engine(
        runtime, factory(), lockstep=lockstep, stall_timeout=60.0, **common
    )
    for c in range(calls):
        X, Y = _stream(n, seed=c)
        sim_stats = sim.train(X, Y)
        stats = engine.train(X, Y)
        assert stats.mode == "lockstep"
        groups = stats.control["groups"]
        assert len(groups) == min(k, S) == stats.control["msgs_received"]
        assert [s for g in groups for s in g] == list(range(S))
    return _fingerprint(sim, sim_stats), _fingerprint(engine, stats)


class TestLockstepGroups:
    @pytest.mark.parametrize(
        "lr_schedule", [None, _decay], ids=["flat", "decay"]
    )
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("runtime", HOSTS)
    @pytest.mark.parametrize("label", sorted(SCHEDULES))
    def test_hex_equal_to_the_simulator(
        self, monkeypatch, label, runtime, width, lr_schedule
    ):
        kw = dict(SCHEDULES[label], lr_schedule=lr_schedule)
        sim, run = _pair(monkeypatch, BN_FACTORY, runtime, width, True, kw, 11)
        assert run == sim


#: free-running requests that run stage groups: synchronous schedules at
#: any width, and pb / 1f1b short of a CPU per stage
FREE_GROUPED = [
    (label, width) for label in ("fill_drain", "gpipe") for width in WIDTHS
] + [(label, width) for label in ("pb", "1f1b") for width in (1, 2)]


class TestFreeRunningRequestsAreGrouped:
    """``fill_drain`` and ``gpipe`` always run stage groups, since no
    timing could move one of their bits; ``pb`` and ``1f1b`` when short
    of a usable CPU per stage, which the paper's free-running pipeline
    assumes — with ``S`` they keep one free-running worker per stage."""

    @pytest.mark.parametrize(
        "lr_schedule", [None, _decay], ids=["flat", "decay"]
    )
    @pytest.mark.parametrize("runtime", HOSTS)
    @pytest.mark.parametrize("label,width", FREE_GROUPED)
    def test_free_running_is_hex_equal_too(
        self, monkeypatch, label, width, runtime, lr_schedule
    ):
        kw = dict(SCHEDULES[label], lr_schedule=lr_schedule)
        sim, run = _pair(
            monkeypatch, BN_FACTORY, runtime, width, False, kw, 11
        )
        assert run == sim

    @pytest.mark.parametrize("runtime", HOSTS)
    @pytest.mark.parametrize("label", ["pb", "1f1b"])
    def test_a_cpu_per_stage_stays_free_running(
        self, monkeypatch, label, runtime
    ):
        S = BN_FACTORY().num_stages
        monkeypatch.setattr(runtime_module, "usable_cpus", lambda: S)
        stats = make_pipeline_engine(
            runtime, BN_FACTORY(), lr=LR, momentum=0.9, stall_timeout=60.0,
            **SCHEDULES[label],
        ).train(*_stream(11))
        assert stats.mode == "free_running"
        assert stats.control["groups"] == [(s,) for s in range(S)]
        assert stats.control["msgs_received"] == S


class TestDeepCuts:
    """A 16-stage residual net in two or three groups: the boundaries
    fall inside skip connections, a group spans many stages (so a
    backward slot is held across several ticks), and several calls
    reuse the engine."""

    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize("runtime", HOSTS)
    @pytest.mark.parametrize("label", ["pb", "gpipe"])
    def test_residual_net(self, monkeypatch, label, runtime, width):
        def factory():
            return resnet_tiny(num_classes=4, widths=(4, 4, 8), seed=1)

        sim, run = _pair(
            monkeypatch, factory, runtime, width, True, SCHEDULES[label], 24,
            calls=2,
        )
        assert run == sim

    def test_more_groups_than_cores_under_fast_switching(self, monkeypatch):
        """Sixteen thread groups of one stage, then five of several,
        whatever the host's cores, with the interpreter switching
        threads every 10 us: a lost or reordered packet would move a
        bit."""
        def factory():
            return resnet_tiny(num_classes=4, widths=(4, 4, 8), seed=1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for width in ("S", 5):
                sim, run = _pair(
                    monkeypatch, factory, "threaded", width, True,
                    SCHEDULES["pb"], 16,
                )
                assert run == sim
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize("runtime", HOSTS)
def test_one_group_outlasts_the_stall_timeout(monkeypatch, jittered, runtime):
    """One worker runs a whole pipeline fill, tens of sleepy ops, before
    its first completion: its step count, not the completion count
    alone, keeps the parent's 0.3 s stall deadline moving."""
    monkeypatch.setattr(runtime_module, "usable_cpus", lambda: 1)
    engine = jittered(
        make_pipeline_engine(
            runtime, BN_FACTORY(), lr=LR, lockstep=True, stall_timeout=0.3,
            **SCHEDULES["gpipe"],
        ),
        0.03, seed=4,
    )
    stats = engine.train(*_stream(16))
    assert stats.control["groups"] == [tuple(range(engine.num_stages))]
    assert stats.samples == 16


def test_the_cut_weighs_parameters_by_output_positions(monkeypatch):
    """A conv stage's work is its parameters times its output positions,
    which both hosts read off the boundary layouts of one dummy forward.
    On this net a cut by parameters alone would differ; both hosts cut
    by the weighted cost, and both runs stay exact."""
    monkeypatch.setattr(runtime_module, "usable_cpus", lambda: 2)

    def factory():
        return resnet_tiny(num_classes=4, widths=(4, 4, 8), seed=1)

    X, Y = _stream(6)
    stages = PipelineExecutor(factory(), lr=LR).stages
    params = [sum(p.size for p in st.params) for st in stages]
    layouts = probe_boundary_layouts(stages, X[:1])
    positions = [
        max((int(np.prod(a.shape[2:])) for a in out), default=1)
        for out in layouts[1:] + [()]
    ]
    costs = [c * n for c, n in zip(params, positions)]
    expect = contiguous_partition(costs, 2)
    assert expect != contiguous_partition(params, 2)
    sim = PipelineExecutor(factory(), lr=LR).train(X, Y)
    for runtime in HOSTS:
        stats = make_pipeline_engine(
            runtime, factory(), lr=LR, lockstep=True
        ).train(X, Y)
        assert stats.control["groups"] == expect
        assert stats.losses.tobytes() == sim.losses.tobytes()

