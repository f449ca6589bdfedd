"""``PipelineStage.state_dict`` round-trips, in and across processes.

The process runtime's correctness rests on stage state being fully
serializable: a worker rebuilds its stage from a spawn-safe recipe
(:class:`~repro.pipeline.stage.StageBuildSpec`), loads the parent's
``state_dict``, trains, and ships the state back.  These tests pin the
round-trip at hex level — a stage reconstructed *in a fresh process*
computes bit-identical forwards, backwards and updates — plus the
validation that refuses mismatched or mid-flight state.
"""

from __future__ import annotations

import multiprocessing as mp
from functools import partial

import numpy as np
import pytest

from repro.core.mitigation import MitigationConfig
from repro.experiments.extensions import _norm_cnn
from repro.models.simple import small_cnn
from repro.pipeline.executor import PipelineExecutor
from repro.pipeline.stage import (
    STATE_ARRAYS,
    WEIGHT_ARRAYS,
    PipelineStage,
    StageBuildSpec,
)


def _trained_stage(seed: int = 3, steps: int = 4):
    """A compute stage with non-trivial optimizer state (post-updates)."""
    model = small_cnn(num_classes=4, widths=(4,), seed=seed)
    ex = PipelineExecutor(model, lr=0.05, momentum=0.9, weight_decay=1e-4,
                         mode="pb")
    rng = np.random.default_rng(0)
    X = rng.normal(size=(steps, 3, 8, 8))
    Y = rng.integers(0, 4, size=steps)
    ex.train(X, Y)
    return ex.stages[0]  # the conv stage


def _fwd_bwd_hex(stage: PipelineStage, x: np.ndarray) -> list[str]:
    """Hex fingerprint of one forward + backward + update at a stage."""
    out = stage.forward(0, [x])
    upstream = stage.backward(0, [np.ones_like(out[0])])
    stage.apply_update()
    # stage 0's input is data: its gradient comes back as None
    returned = [a for a in out + upstream if a is not None]
    arrays = returned + [p.data for p in stage.params]
    return [float(a.sum()).hex() + float(np.abs(a).sum()).hex()
            for a in arrays]


def _child_roundtrip(conn, build_spec, state, x):
    """Rebuild the stage from the recipe in a fresh process, run one
    fwd/bwd/update, return the hex fingerprints."""
    try:
        stage = build_spec.build()
        stage.load_state_dict(state)
        conn.send(("ok", _fwd_bwd_hex(stage, x)))
    except BaseException as exc:  # pragma: no cover - failure reporting
        conn.send(("err", repr(exc)))


class TestStateDictRoundTrip:
    def test_in_process_roundtrip_is_bit_exact(self):
        stage = _trained_stage()
        spec = StageBuildSpec(
            model_factory=partial(small_cnn, num_classes=4, widths=(4,),
                                  seed=3),
            index=0, lr=0.05, momentum=0.9, weight_decay=1e-4,
        )
        rebuilt = spec.build()
        rebuilt.load_state_dict(stage.state_dict())
        x = np.random.default_rng(7).normal(size=(1, 3, 8, 8))
        assert _fwd_bwd_hex(rebuilt, x) == _fwd_bwd_hex(stage, x)

    @pytest.mark.concurrency
    def test_fresh_process_roundtrip_is_bit_exact(self):
        """The satellite contract: reconstruct in a *fresh process*, run
        one fwd/bwd, hex-equal outputs vs. the in-process stage."""
        stage = _trained_stage()
        state = stage.state_dict()
        spec = StageBuildSpec(
            model_factory=partial(small_cnn, num_classes=4, widths=(4,),
                                  seed=3),
            index=0, lr=0.05, momentum=0.9, weight_decay=1e-4,
        )
        x = np.random.default_rng(7).normal(size=(1, 3, 8, 8))
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_child_roundtrip, args=(child_conn, spec, state, x),
            daemon=True,
        )
        proc.start()
        assert parent_conn.poll(60.0), "child never replied"
        tag, payload = parent_conn.recv()
        proc.join(10.0)
        assert tag == "ok", payload
        assert payload == _fwd_bwd_hex(stage, x)

    def test_state_dict_captures_velocity_and_counters(self):
        stage = _trained_stage(steps=5)
        state = stage.state_dict()
        assert state["updates_applied"] == 5
        assert len(state["params"]) == len(stage.params)
        for v, p in zip(state["velocity"], stage.params):
            assert v.shape == p.data.shape
            assert np.array_equal(v, stage.velocity(p))
        # copies, not references
        state["params"][0][...] = 0.0
        assert not np.allclose(stage.params[0].data, 0.0)

    def test_load_rebinds_shared_parameters(self):
        """The model sharing the Parameter objects sees loaded weights."""
        model = small_cnn(num_classes=4, widths=(4,), seed=1)
        ex = PipelineExecutor(model, lr=0.05, mode="pb")
        stage = ex.stages[0]
        state = stage.state_dict()
        for arr in state["params"]:
            arr += 1.0
        stage.load_state_dict(state)
        assert any(
            np.array_equal(p.data, arr)
            for p in model.parameters()
            for arr in state["params"]
        )


class TestStateDictValidation:
    def test_mid_flight_state_dict_refused(self):
        model = small_cnn(num_classes=4, widths=(4,), seed=1)
        stage = PipelineExecutor(model, lr=0.05, mode="pb").stages[0]
        stage.forward(0, [np.zeros((1, 3, 8, 8))])  # stash now non-empty
        with pytest.raises(RuntimeError, match="drain"):
            stage.state_dict()

    def test_wrong_array_count_raises(self):
        stage = _trained_stage()
        state = stage.state_dict()
        state["velocity"] = state["velocity"][:-1]
        with pytest.raises(ValueError, match="velocity"):
            stage.load_state_dict(state)

    def test_wrong_shape_raises_before_any_mutation(self):
        stage = _trained_stage()
        before = [p.data.copy() for p in stage.params]
        state = stage.state_dict()
        state["params"] = [np.zeros((2, 2)) for _ in state["params"]]
        with pytest.raises(ValueError, match="shape"):
            stage.load_state_dict(state)
        for p, b in zip(stage.params, before):
            assert np.array_equal(p.data, b), "partial load tore the stage"

    def test_build_spec_index_validated(self):
        spec = StageBuildSpec(
            model_factory=partial(small_cnn, num_classes=4, widths=(4,),
                                  seed=3),
            index=99, lr=0.05,
        )
        with pytest.raises(ValueError, match="out of range"):
            spec.build()

    def test_build_spec_applies_configuration(self):
        mit = MitigationConfig.sc()
        spec = StageBuildSpec(
            model_factory=partial(small_cnn, num_classes=4, widths=(4,),
                                  seed=3),
            index=0, lr=0.07, momentum=0.8, weight_decay=1e-3,
            mitigation=mit, always_stash=True, record_versions=True,
        )
        stage = spec.build()
        assert stage.lr == 0.07
        assert stage.momentum == 0.8
        assert stage.weight_decay == 1e-3
        assert stage.mitigation is mit
        assert stage.always_stash
        assert stage.record_versions


# ---------------------------------------------------------------------------
# buffers: BatchNorm running statistics are stage state too
# ---------------------------------------------------------------------------

#: The 5-stage BatchNorm CNN of ``experiments/extensions.py`` (two BN
#: layers, four buffers) — the model the other suites' buffer cases
#: import from here.
BN_FACTORY = partial(_norm_cnn, "bn", 4, 3)
#: gpipe packets of 4, so the batch statistics are not degenerate
BN_SCHEDULE = dict(mode="gpipe", update_size=8, micro_batch_size=4)


def bn_stream(n: int = 16, seed: int = 0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3, 8, 8)), rng.integers(0, 4, size=n)


def buffers_hex(model) -> list[str]:
    return [b.tobytes().hex() for _, b in model.named_buffers()]


def _trained_bn_stage():
    model = BN_FACTORY()
    ex = PipelineExecutor(model, lr=0.05, momentum=0.9, **BN_SCHEDULE)
    ex.train(*bn_stream())
    return model, ex.stages[0]  # conv + BatchNorm + ReLU


class TestBuffersInStageState:
    def test_array_keys_are_declared_once(self):
        assert STATE_ARRAYS == ("params", "velocity", "prev_weights", "buffers")
        assert set(WEIGHT_ARRAYS) < set(STATE_ARRAYS)
        stage = _trained_stage()
        assert set(stage.state_dict()) == set(STATE_ARRAYS) | {
            "updates_applied", "lr"
        }

    def test_state_dict_carries_buffers_in_traversal_order(self):
        model, stage = _trained_bn_stage()
        state = stage.state_dict()
        named = list(stage.spec.module.named_buffers())
        assert [n.rsplit(".", 1)[-1] for n, _ in named] == [
            "running_mean", "running_var"
        ]
        assert [a.tobytes() for a in state["buffers"]] == [
            b.tobytes() for _, b in named
        ]
        assert buffers_hex(model) != buffers_hex(BN_FACTORY())  # trained
        # copies, not references
        state["buffers"][0][...] = 7.0
        assert not np.any(stage.spec.module.m1.running_mean == 7.0)

    def test_roundtrip_loads_buffers_where_the_forward_reads_them(self):
        _, stage = _trained_bn_stage()
        fresh = stage.build_spec(BN_FACTORY).build()
        fresh.load_state_dict(stage.state_dict())
        bn = fresh.spec.module.m1
        # the attribute the forward reads and the registry agree
        assert bn.running_var is bn._buffers["running_var"]
        assert [a.tobytes() for a in fresh.state_dict()["buffers"]] == [
            a.tobytes() for a in stage.state_dict()["buffers"]
        ]
        x = np.random.default_rng(7).normal(size=(4, 3, 8, 8))
        assert _fwd_bwd_hex(fresh, x) == _fwd_bwd_hex(stage, x)

    def test_weights_only_view_leaves_optimizer_state_alone(self):
        _, stage = _trained_bn_stage()
        fresh = stage.build_spec(BN_FACTORY).build()
        fresh.load_state_dict(stage.state_dict(), WEIGHT_ARRAYS)
        got, want = fresh.state_dict(), stage.state_dict()
        for key in WEIGHT_ARRAYS:
            assert [a.tobytes() for a in got[key]] == [
                a.tobytes() for a in want[key]
            ]
        assert got["updates_applied"] == 0
        assert all(not v.any() for v in got["velocity"])

    def test_payload_without_buffers_loads_only_where_none_are_owned(self):
        """A v1 payload (written before buffers were captured) loads
        unchanged into a buffer-free stage and is refused — not reset to
        initial statistics — by a stage that owns buffers."""
        plain = _trained_stage()
        v1 = plain.state_dict()
        del v1["buffers"]
        plain.load_state_dict(v1)

        _, stage = _trained_bn_stage()
        before = stage.state_dict()
        v1 = stage.state_dict()
        del v1["buffers"]
        with pytest.raises(ValueError, match="0 buffers arrays"):
            stage.load_state_dict(v1)
        after = stage.state_dict()
        for key in STATE_ARRAYS:
            assert [a.tobytes() for a in after[key]] == [
                a.tobytes() for a in before[key]
            ]

    def test_wrong_buffer_shape_raises(self):
        _, stage = _trained_bn_stage()
        state = stage.state_dict()
        state["buffers"][1] = np.ones(3)
        with pytest.raises(ValueError, match=r"buffers\[1\] has shape"):
            stage.validate_state(state)

    def test_reduced_precision_casts_buffers_and_ships_them(self):
        """``cast_model`` reaches buffers of nested modules (it used to
        raise ``KeyError`` on their dotted names), so a float32 engine
        carries float32 running statistics through ``state_dict``."""
        model = BN_FACTORY()
        ex = PipelineExecutor(
            model, lr=0.05, momentum=0.9, precision="float32", **BN_SCHEDULE
        )
        ex.train(*bn_stream())
        state = ex.stages[0].state_dict()
        assert [a.dtype for a in state["buffers"]] == [np.float32] * 2
        bn = model.stage_defs[0].module.m1
        assert bn.running_mean is bn._buffers["running_mean"]
        fresh = ex.stages[0].build_spec(BN_FACTORY).build()
        fresh.load_state_dict(state)  # same grid: passes dtype validation
        assert buffers_hex(fresh.spec.module) == [
            a.tobytes().hex() for a in state["buffers"]
        ]
