"""Checkpoint round-trips: on-disk format, engine state, DurableRun.

The durability contract (`repro/pipeline/checkpoint.py`): a checkpoint
captured at a drain barrier restores **bit-exactly** — every stage
state_dict field hex-equal after a save→load round trip, across all four
schedules × all three engines, including into a *fresh process* started
with ``spawn`` — and a :class:`DurableRun` resumed from disk lands on
the same final weights and losses as the uninterrupted (cadence-matched)
run.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import struct
from functools import partial

import numpy as np
import pytest

from repro.data.loader import ResumableSampleStream
from repro.models.simple import small_cnn
from repro.pipeline import (
    CHECKPOINT_VERSION,
    CheckpointError,
    ConcurrentPipelineRunner,
    DurableRun,
    PipelineExecutor,
    ProcessPipelineRunner,
    capture_checkpoint,
    load_checkpoint,
    model_fingerprint,
    restore_checkpoint,
    save_checkpoint,
)
from repro.pipeline.checkpoint import (
    CHECKPOINT_MAGIC,
    checkpoint_fingerprint,
    restore_inference_weights,
)
from repro.pipeline.stage import STATE_ARRAYS
from repro.utils.rng import new_rng

from test_schedules_golden import (
    GOLDEN,
    LR,
    MOMENTUM,
    N_SAMPLES,
    RUNS,
    SEED,
    WEIGHT_DECAY,
)
from test_stage_state import BN_FACTORY, BN_SCHEDULE, bn_stream, buffers_hex

STALL = 60.0

FACTORY = partial(small_cnn, num_classes=4, widths=(4,), seed=3)

#: (schedule kwargs) × (engine builder) matrices for the round-trip pins.
SCHEDULES = {
    "pb": dict(mode="pb"),
    "fill_drain": dict(mode="fill_drain", update_size=4),
    "gpipe": dict(mode="gpipe", update_size=4, micro_batch_size=2),
    "1f1b": dict(mode="1f1b"),
}

ENGINES = {
    "sim": lambda model, kw: PipelineExecutor(
        model, lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY, **kw
    ),
    "threaded": lambda model, kw: ConcurrentPipelineRunner(
        model, lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
        lockstep=True, **kw
    ),
    "process": lambda model, kw: ProcessPipelineRunner(
        model, lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
        lockstep=True, stall_timeout=STALL, model_factory=FACTORY, **kw
    ),
}


def _stream(n: int, seed: int = 99):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3, 8, 8)), rng.integers(0, 4, size=n)


def _hex_state(state: dict) -> dict:
    """Every engine-state array rendered as hex bytes for exact compare."""
    out = {
        "schedule": state["schedule"],
        "samples_completed": state["samples_completed"],
        "stages": [],
    }
    for st in state["stages"]:
        out["stages"].append(
            {
                "updates_applied": st["updates_applied"],
                "lr": float(st["lr"]).hex(),
                **{
                    key: [a.tobytes().hex() for a in st[key]]
                    for key in STATE_ARRAYS
                },
            }
        )
    return out


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------


class TestFileFormat:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        payload = {
            "engine": {"stages": [], "samples_completed": 7},
            "stream": None,
            "metadata": {"note": "x"},
        }
        save_checkpoint(str(path), payload)
        loaded = load_checkpoint(str(path))
        assert loaded["engine"]["samples_completed"] == 7
        assert loaded["format_version"] == CHECKPOINT_VERSION
        assert loaded["metadata"] == {"note": "x"}

    def test_arrays_roundtrip_bit_exactly(self, tmp_path):
        path = tmp_path / "run.ckpt"
        arr = np.random.default_rng(0).normal(size=(5, 7))
        save_checkpoint(str(path), {"engine": {"a": arr}})
        back = load_checkpoint(str(path))["engine"]["a"]
        assert back.tobytes() == arr.tobytes()
        assert back.dtype == arr.dtype

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOT-A-CKPT-FILE")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + b"\x01")
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    def test_future_version_refused(self, tmp_path):
        path = tmp_path / "future.ckpt"
        body = pickle.dumps({"engine": {}})
        path.write_bytes(
            CHECKPOINT_MAGIC
            + struct.pack("<I", CHECKPOINT_VERSION + 1)
            + body
        )
        with pytest.raises(CheckpointError, match="newer"):
            load_checkpoint(str(path))

    def test_corrupt_body(self, tmp_path):
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(
            CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
            + b"garbage"
        )
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(str(path))

    def test_overwrite_is_atomic_publish(self, tmp_path):
        """Saving over an existing checkpoint leaves no temp debris and
        the new content wins."""
        path = tmp_path / "run.ckpt"
        save_checkpoint(str(path), {"engine": {"v": 1}})
        save_checkpoint(str(path), {"engine": {"v": 2}})
        assert load_checkpoint(str(path))["engine"]["v"] == 2
        assert os.listdir(tmp_path) == ["run.ckpt"]


# ---------------------------------------------------------------------------
# engine state round trips: 4 schedules x 3 engines
# ---------------------------------------------------------------------------


def _train_engine(engine_key: str, sched_kw: dict, X, Y):
    model = FACTORY()
    engine = ENGINES[engine_key](model, dict(sched_kw))
    engine.train(X, Y)
    return model, engine


@pytest.mark.parametrize("engine_key", sorted(ENGINES))
@pytest.mark.parametrize("sched_key", sorted(SCHEDULES))
@pytest.mark.concurrency
class TestEngineRoundTrip:
    def test_every_state_field_hex_equal_after_save_load(
        self, tmp_path, engine_key, sched_key
    ):
        """The satellite contract: save→load hex-equality of every
        state_dict field (params/velocity/prev_weights arrays, update
        counters, lr) across schedules × engines."""
        X, Y = _stream(12)
        _, engine = _train_engine(engine_key, SCHEDULES[sched_key], X, Y)
        path = str(tmp_path / "e.ckpt")
        save_checkpoint(path, capture_checkpoint(engine))
        loaded = load_checkpoint(path)["engine"]
        assert _hex_state(loaded) == _hex_state(engine.state_dict())

    def test_restored_engine_continues_identically(
        self, tmp_path, engine_key, sched_key
    ):
        """Restore into a *fresh* engine, train more: hex-identical
        losses and final weights vs the uninterrupted engine."""
        X, Y = _stream(20, seed=5)
        m1, e1 = _train_engine(engine_key, SCHEDULES[sched_key], X[:12], Y[:12])
        path = str(tmp_path / "e.ckpt")
        save_checkpoint(path, capture_checkpoint(e1))

        m2 = FACTORY()
        e2 = ENGINES[engine_key](m2, dict(SCHEDULES[sched_key]))
        restore_checkpoint(load_checkpoint(path), engine=e2)
        s1 = e1.train(X[12:], Y[12:])
        s2 = e2.train(X[12:], Y[12:])
        assert [l.hex() for l in s1.losses] == [l.hex() for l in s2.losses]
        assert model_fingerprint(m1) == model_fingerprint(m2)
        assert e1.samples_completed == e2.samples_completed


def _bn_engine(engine_key: str, model):
    kw = dict(lr=0.05, momentum=0.9, **BN_SCHEDULE)
    if engine_key == "sim":
        return PipelineExecutor(model, **kw)
    if engine_key == "threaded":
        return ConcurrentPipelineRunner(model, lockstep=True, **kw)
    return ProcessPipelineRunner(
        model, lockstep=True, stall_timeout=STALL, **kw
    )


def _without_buffers(ckpt: dict) -> dict:
    """The payload as a pre-buffer (v1) build would have written it."""
    engine = dict(ckpt["engine"])
    engine["stages"] = [
        {k: v for k, v in st.items() if k != "buffers"}
        for st in engine["stages"]
    ]
    return dict(ckpt, engine=engine)


class TestBuffersInCheckpoints:
    @pytest.mark.concurrency
    @pytest.mark.parametrize("engine_key", sorted(ENGINES))
    def test_resume_keeps_running_statistics(self, tmp_path, engine_key):
        """checkpoint → fresh engine → continue: BatchNorm statistics
        (and everything else) hex-equal to the uninterrupted engine."""
        X, Y = bn_stream(32)
        m1, m2 = BN_FACTORY(), BN_FACTORY()
        e1 = _bn_engine(engine_key, m1)
        e1.train(X[:16], Y[:16])
        path = str(tmp_path / "bn.ckpt")
        save_checkpoint(path, capture_checkpoint(e1))
        e2 = _bn_engine(engine_key, m2)
        restore_checkpoint(load_checkpoint(path), engine=e2)
        assert buffers_hex(m2) == buffers_hex(m1) != buffers_hex(BN_FACTORY())
        assert _hex_state(e2.state_dict()) == _hex_state(e1.state_dict())
        s1 = e1.train(X[16:], Y[16:])
        s2 = e2.train(X[16:], Y[16:])
        assert [l.hex() for l in s1.losses] == [l.hex() for l in s2.losses]
        assert buffers_hex(m2) == buffers_hex(m1)
        assert model_fingerprint(m1) == model_fingerprint(m2)

    def test_fingerprints_cover_buffers(self):
        model = BN_FACTORY()
        engine = _bn_engine("sim", model)
        engine.train(*bn_stream())
        ckpt = capture_checkpoint(engine)
        assert checkpoint_fingerprint(ckpt) == model_fingerprint(model)
        ckpt["engine"]["stages"][0]["buffers"][1][0] += 1.0  # running var
        assert checkpoint_fingerprint(ckpt) != model_fingerprint(model)

    def test_buffer_free_fingerprints_are_what_they_were(self):
        """Params hash first, so a model that owns no buffers keeps the
        fingerprint it had before buffers were covered (pinned from the
        commit before)."""
        model = FACTORY()
        assert model_fingerprint(model) == (
            "d7e0b38ebc915ee062d238522f21753c154e6c8ad9dc3729c453844027d09fa5"
        )
        engine = PipelineExecutor(model, lr=0.05, momentum=0.9, mode="pb")
        engine.train(*_stream(8))
        trained = (
            "89df610baa40f92d831d7da7ce729095b4de58de95646f0965d53da5300f0783"
        )
        assert model_fingerprint(model) == trained
        assert checkpoint_fingerprint(capture_checkpoint(engine)) == trained

    def test_v1_payload_loads_only_into_buffer_free_models(self):
        """No silent reset: a payload without ``"buffers"`` restores a
        ``small_cnn`` exactly as before, and is refused for the
        BatchNorm model by both the resume and the serving restore."""
        model, engine = _train_engine("sim", SCHEDULES["pb"], *_stream(8))
        v1 = _without_buffers(capture_checkpoint(engine))
        fresh = FACTORY()
        restore_checkpoint(v1, engine=ENGINES["sim"](fresh, SCHEDULES["pb"]))
        assert model_fingerprint(fresh) == model_fingerprint(model)
        served = FACTORY()
        restore_inference_weights(v1, served)
        assert model_fingerprint(served) == model_fingerprint(model)

        bn_engine = _bn_engine("sim", BN_FACTORY())
        bn_engine.train(*bn_stream())
        v1 = _without_buffers(capture_checkpoint(bn_engine))
        target = BN_FACTORY()
        before = model_fingerprint(target)
        with pytest.raises(ValueError, match="0 buffers arrays"):
            restore_checkpoint(v1, engine=_bn_engine("sim", target))
        with pytest.raises(CheckpointError, match="0 buffers arrays"):
            restore_inference_weights(v1, target)
        assert model_fingerprint(target) == before  # untouched


class TestRestoreValidation:
    def test_schedule_mismatch_refused(self):
        X, Y = _stream(8)
        _, e1 = _train_engine("sim", SCHEDULES["pb"], X, Y)
        m2 = FACTORY()
        e2 = ENGINES["sim"](m2, dict(SCHEDULES["fill_drain"]))
        with pytest.raises(ValueError, match="schedule"):
            restore_checkpoint(capture_checkpoint(e1), engine=e2)

    def test_schedule_mismatch_names_both_schedules(self, tmp_path):
        """The refusal message must name the on-disk schedule *and* the
        session's, with their knobs — a mis-paired checkpoint should be
        diagnosable from the error alone."""
        X, Y = _stream(8)
        _, e1 = _train_engine("sim", SCHEDULES["gpipe"], X, Y)
        path = str(tmp_path / "gpipe.ckpt")
        save_checkpoint(path, capture_checkpoint(e1))
        m2 = FACTORY()
        e2 = ENGINES["sim"](m2, dict(SCHEDULES["pb"]))
        with pytest.raises(ValueError) as err:
            restore_checkpoint(load_checkpoint(path), engine=e2)
        message = str(err.value)
        assert "'gpipe'" in message  # the checkpoint's schedule
        assert "'pb'" in message  # the engine's schedule
        # and the identity knobs of each, so gpipe-vs-gpipe cadence
        # mismatches are equally diagnosable
        assert "update_size=4" in message and "micro_batch=2" in message
        assert "update_size=1" in message and "micro_batch=1" in message

    def test_shape_mismatch_keeps_engine_untouched(self):
        """Cross-stage atomicity: a bad payload in stage k leaves stages
        < k unmodified (validate-all-then-load-all)."""
        X, Y = _stream(8)
        _, e1 = _train_engine("sim", SCHEDULES["pb"], X, Y)
        state = e1.state_dict()
        # corrupt the *last* parameterized stage's arrays
        for st in reversed(state["stages"]):
            if st["params"]:
                st["params"] = [np.zeros((2, 2)) for _ in st["params"]]
                break
        m2 = FACTORY()
        e2 = ENGINES["sim"](m2, dict(SCHEDULES["pb"]))
        before = model_fingerprint(m2)
        with pytest.raises(ValueError, match="shape"):
            e2.load_state_dict(state)
        assert model_fingerprint(m2) == before

    def test_mid_flight_capture_refused(self):
        model = FACTORY()
        engine = PipelineExecutor(model, lr=LR, mode="pb")
        engine.stages[0].forward(0, [np.zeros((1, 3, 8, 8))])
        with pytest.raises(RuntimeError, match="drain"):
            capture_checkpoint(engine)

    def test_restore_without_stream_cursor_refused(self):
        X, Y = _stream(8)
        _, e1 = _train_engine("sim", SCHEDULES["pb"], X, Y)
        ckpt = capture_checkpoint(e1)  # no stream attached
        stream = ResumableSampleStream(X, Y, 1, new_rng(0))
        with pytest.raises(CheckpointError, match="stream"):
            restore_checkpoint(ckpt, stream=stream)


# ---------------------------------------------------------------------------
# fresh-process restore (spawn)
# ---------------------------------------------------------------------------


def _spawn_restore_probe(conn, path, sched_kw, x, y):
    """Child entry (spawn): load the checkpoint from disk, restore into
    a freshly built sim engine, train the tail, report fingerprints."""
    try:
        from repro.pipeline import PipelineExecutor, load_checkpoint

        model = FACTORY()
        engine = PipelineExecutor(
            model, lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
            **sched_kw,
        )
        engine.load_state_dict(load_checkpoint(path)["engine"])
        stats = engine.train(x, y)
        conn.send(
            (
                "ok",
                [l.hex() for l in stats.losses],
                model_fingerprint(model),
            )
        )
    except BaseException as exc:  # pragma: no cover - failure reporting
        conn.send(("err", repr(exc), ""))


@pytest.mark.concurrency(timeout=300)
def test_spawn_start_fresh_process_restore(tmp_path):
    """The satellite's spawn leg: a checkpoint written here restores in
    a brand-new interpreter (no inherited state whatsoever) and the
    continued run is hex-identical to the parent's."""
    X, Y = _stream(16, seed=21)
    m1, e1 = _train_engine("sim", SCHEDULES["pb"], X[:10], Y[:10])
    path = str(tmp_path / "spawn.ckpt")
    save_checkpoint(path, capture_checkpoint(e1))
    ref_stats = e1.train(X[10:], Y[10:])

    ctx = mp.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(
        target=_spawn_restore_probe,
        args=(child_conn, path, SCHEDULES["pb"], X[10:], Y[10:]),
        daemon=True,
    )
    proc.start()
    assert parent_conn.poll(240.0), "spawned child never replied"
    tag, losses, fingerprint = parent_conn.recv()
    proc.join(10.0)
    assert tag == "ok", losses
    assert losses == [l.hex() for l in ref_stats.losses]
    assert fingerprint == model_fingerprint(m1)


# ---------------------------------------------------------------------------
# DurableRun
# ---------------------------------------------------------------------------


def _golden_stream(n: int = N_SAMPLES):
    rng = np.random.default_rng(99)
    X = rng.normal(size=(n, 3, 8, 8))
    Y = rng.integers(0, 4, size=n)
    return X, Y


class TestDurableRun:
    @pytest.mark.parametrize("label", sorted(RUNS))
    def test_no_cadence_matches_canonical_goldens(self, label):
        """DurableRun with checkpointing disabled is a plain train():
        the canonical hex goldens hold verbatim through the driver."""
        X, Y = _golden_stream()
        model = small_cnn(num_classes=4, widths=(4, 8), seed=SEED)
        engine = PipelineExecutor(
            model, lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
            **RUNS[label],
        )
        stream = ResumableSampleStream(X, Y, 1, new_rng(0))
        # bypass the shuffle: feed the canonical stream order directly
        stream._epoch_x, stream._epoch_y = X, Y
        stream._epoch_rng_state = stream.rng.bit_generator.state
        result = DurableRun(engine, stream).run()
        golden = GOLDEN[label]
        assert [float(l).hex() for l in result.losses] == golden["losses"]
        wsum = float(
            np.sum([float(p.data.sum()) for p in model.parameters()])
        ).hex()
        assert wsum == golden["weight_sum"]

    def test_cadence_rounds_up_to_update_size(self):
        model = FACTORY()
        engine = PipelineExecutor(
            model, lr=LR, mode="fill_drain", update_size=4
        )
        X, Y = _stream(8)
        stream = ResumableSampleStream(X, Y, 1, new_rng(0))
        run = DurableRun(engine, stream, checkpoint_every=5)
        assert run.checkpoint_every == 8  # 5 -> next multiple of 4

    def test_rejects_negative_cadence(self):
        model = FACTORY()
        engine = PipelineExecutor(model, lr=LR, mode="pb")
        X, Y = _stream(4)
        stream = ResumableSampleStream(X, Y, 1, new_rng(0))
        with pytest.raises(ValueError, match="checkpoint_every"):
            DurableRun(engine, stream, checkpoint_every=-1)

    def test_checkpoint_file_written_per_segment(self, tmp_path):
        path = str(tmp_path / "seg.ckpt")
        model = FACTORY()
        engine = PipelineExecutor(model, lr=LR, momentum=MOMENTUM, mode="pb")
        X, Y = _stream(12)
        stream = ResumableSampleStream(X, Y, 1, new_rng(0))
        result = DurableRun(
            engine, stream, checkpoint_path=path, checkpoint_every=4
        ).run()
        assert result.segments == 3
        assert result.samples == 12
        ckpt = load_checkpoint(path)
        assert ckpt["samples_completed"] == 12
        assert ckpt["checkpoint_every"] == 4
        assert ckpt["stream"]["epoch"] == 1  # one full epoch consumed

    @pytest.mark.parametrize("engine_key", sorted(ENGINES))
    @pytest.mark.parametrize("sched_key", sorted(SCHEDULES))
    @pytest.mark.concurrency
    def test_resume_lands_on_golden_weights_and_losses(
        self, tmp_path, sched_key, engine_key
    ):
        """Kill the driver after its first snapshot; a freshly built
        engine + stream resumed from the file finishes with hex-equal
        weights and losses vs the uninterrupted cadence-matched run —
        on every runtime (lockstep), the process one included."""
        every = 8
        epochs = 2

        def build():
            model = FACTORY()
            engine = ENGINES[engine_key](model, dict(SCHEDULES[sched_key]))
            X, Y = _stream(16, seed=31)
            stream = ResumableSampleStream(X, Y, epochs, new_rng(12))
            return model, engine, stream

        m_gold, e_gold, s_gold = build()
        gold = DurableRun(e_gold, s_gold, checkpoint_every=every).run()

        path = str(tmp_path / "r.ckpt")
        _, e_int, s_int = build()
        DurableRun(
            e_int, s_int, checkpoint_path=path, checkpoint_every=every
        ).run(max_samples=every)  # "the job dies here"

        m_res, e_res, s_res = build()
        result = DurableRun.resume(path, e_res, s_res).run()
        assert model_fingerprint(m_res) == model_fingerprint(m_gold)
        assert [float(l).hex() for l in result.losses] == [
            float(l).hex() for l in gold.losses[every:]
        ]
        assert e_res.samples_completed == e_gold.samples_completed

    def test_resume_keeps_stored_cadence(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        model = FACTORY()
        engine = PipelineExecutor(model, lr=LR, mode="pb")
        X, Y = _stream(12)
        stream = ResumableSampleStream(X, Y, 1, new_rng(0))
        DurableRun(
            engine, stream, checkpoint_path=path, checkpoint_every=4
        ).run(max_samples=4)
        m2 = FACTORY()
        e2 = PipelineExecutor(m2, lr=LR, mode="pb")
        s2 = ResumableSampleStream(X, Y, 1, new_rng(0))
        run = DurableRun.resume(path, e2, s2)
        assert run.checkpoint_every == 4
        assert e2.samples_completed == 4
        assert s2.position == 4
