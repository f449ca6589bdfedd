"""Mixed-precision contracts: grids, scaling, parity and rejection.

Four layers of coverage for :mod:`repro.precision`:

* **Grid properties** (hypothesis): the simulated-bf16 round-trip is
  idempotent (the bf16 grid is a fixed point) and monotone (rounding
  never reorders values), and int8 quantization stays within half a
  quantization step of the input.
* **Loss-scaler semantics**: an overflow step leaves the optimizer's
  weights *and* velocity byte-for-byte unchanged (the bit-neutral skip),
  backs the scale off, and clears the gradients; clean steps under a
  scaler match the unscaled update within float64 noise.
* **Parity**: float32 tracks the float64 reference within the policy's
  tolerance on every schedule x every runtime (sim / threaded lockstep /
  process lockstep); bf16 tracks it within its (looser) tolerance; and
  ``precision="float64"`` is *hex-identical* to the default path — the
  reference contract of ``test_schedules_golden`` is untouched by the
  precision plumbing.
* **Rejection**: serving-only int8 cannot drive training; state dicts
  saved on one precision grid refuse to load onto another, naming the
  mode instead of silently casting.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.simple import small_cnn
from repro.optim import SGDM
from repro.pipeline import (
    ConcurrentPipelineRunner,
    PipelineExecutor,
    ProcessPipelineRunner,
)
from repro.pipeline.stage import PipelineStage
from repro.precision import (
    LossScaler,
    PrecisionPolicy,
    quantize_int8,
    resolve_precision,
    simulate_bf16,
)
from repro.nn import Parameter

from test_schedules_golden import GOLDEN, LR, MOMENTUM, SEED, WEIGHT_DECAY

# the golden workload (test_schedules_golden), reused so the float64
# re-pin below is a statement about the exact pinned numbers
FACTORY = partial(small_cnn, num_classes=4, widths=(4, 8), seed=SEED)

SCHEDULES = {
    "pb": dict(mode="pb"),
    "fill_drain": dict(mode="fill_drain", update_size=4),
    "gpipe": dict(mode="gpipe", update_size=4, micro_batch_size=4),
    "1f1b": dict(mode="1f1b"),
}


def _stream(n: int = 16, seed: int = 99):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3, 8, 8)), rng.integers(0, 4, size=n)


def _hex(arr) -> list[str]:
    return [float(v).hex() for v in np.asarray(arr, dtype=np.float64).ravel()]


# -- grid properties ---------------------------------------------------------

finite64 = st.floats(allow_nan=False, allow_infinity=False, width=32)


class TestBf16Grid:
    @given(st.lists(finite64, min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_idempotent(self, values):
        """bf16(bf16(x)) == bf16(x) bit-for-bit: the grid is a fixed
        point, so re-truncating stored weights never drifts them."""
        x = np.asarray(values, dtype=np.float32)
        once = simulate_bf16(x)
        twice = simulate_bf16(once)
        assert once.dtype == np.float32
        assert once.tobytes() == twice.tobytes()

    @given(finite64, finite64)
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, a, b):
        """x <= y implies bf16(x) <= bf16(y): round-to-nearest-even
        truncation never reorders values."""
        lo, hi = (a, b) if a <= b else (b, a)
        ra, rb = (
            simulate_bf16(np.float32(lo)),
            simulate_bf16(np.float32(hi)),
        )
        assert ra <= rb

    @given(finite64)
    @settings(max_examples=200, deadline=None)
    def test_relative_error_bounded(self, a):
        """The bf16 grid keeps 8 mantissa bits: relative error < 2^-8
        for normal values."""
        x = np.float32(a)
        r = float(simulate_bf16(x))
        if np.isfinite(r) and abs(float(x)) > 1e-30:
            assert abs(r - float(x)) <= abs(float(x)) * 2.0**-8

    def test_specials_preserved(self):
        x = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0], dtype=np.float32)
        r = simulate_bf16(x)
        assert np.isnan(r[0])
        assert r[1] == np.inf and r[2] == -np.inf
        assert r[3] == 0.0 and np.signbit(r[4])


class TestInt8Grid:
    @given(st.lists(finite64, min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_quantization_error_bounded(self, values):
        x = np.asarray(values, dtype=np.float32)
        q, scale = quantize_int8(x)
        assert q.dtype == np.int8
        # symmetric per-tensor: error is at most half a step
        assert np.all(np.abs(q * scale - x) <= scale / 2 + 1e-12)

    def test_zero_tensor(self):
        q, scale = quantize_int8(np.zeros(4, dtype=np.float32))
        assert np.all(q == 0) and scale > 0


# -- loss-scaler semantics ---------------------------------------------------


def _toy_sgdm(precision="float32", scaler=None):
    rng = np.random.default_rng(3)
    dtype = np.float32 if precision in ("float32", "bf16") else np.float64
    params = [
        Parameter(rng.normal(size=(4, 3)).astype(dtype)),
        Parameter(rng.normal(size=(4,)).astype(dtype)),
    ]
    if precision == "bf16":
        for p in params:
            p.data = simulate_bf16(p.data)
    opt = SGDM(
        params, lr=0.05, momentum=0.9, weight_decay=1e-4,
        precision=precision, loss_scaler=scaler,
    )
    return params, opt


class TestLossScaler:
    def test_overflow_skip_is_bit_neutral(self):
        """An overflowed step mutates *nothing*: weights, master copies
        and velocity are byte-identical before and after."""
        scaler = LossScaler(init_scale=2.0**10)
        params, opt = _toy_sgdm("float32", scaler)
        # one clean step to make velocity non-trivial
        for p in params:
            p.grad = np.ones_like(p.data) * np.float32(scaler.scale * 0.01)
        opt.step()
        before_w = [p.data.tobytes() for p in params]
        before_v = [opt.velocity(p).tobytes() for p in params]
        before_m = [opt._master[id(p)].tobytes() for p in params]
        scale_before = scaler.scale
        for p in params:
            p.grad = np.full_like(p.data, np.inf)
        opt.step()
        assert [p.data.tobytes() for p in params] == before_w
        assert [opt.velocity(p).tobytes() for p in params] == before_v
        assert [opt._master[id(p)].tobytes() for p in params] == before_m
        assert scaler.scale == scale_before * scaler.backoff_factor
        assert scaler.overflow_skips == 1
        assert all(p.grad is None for p in params)  # grads consumed

    def test_nan_also_triggers_skip(self):
        scaler = LossScaler(init_scale=4.0)
        params, opt = _toy_sgdm("float32", scaler)
        before = [p.data.tobytes() for p in params]
        for p in params:
            p.grad = np.full_like(p.data, np.nan)
        opt.step()
        assert [p.data.tobytes() for p in params] == before
        assert scaler.overflow_skips == 1

    def test_scaled_update_matches_unscaled(self):
        """Scaling the gradients by S and stepping with a scaler at S is
        the same update as the unscaled step (to float64 master math)."""
        scaler = LossScaler(init_scale=2.0**8, growth_interval=10**9)
        params_s, opt_s = _toy_sgdm("float32", scaler)
        params_u, opt_u = _toy_sgdm("float32", None)
        rng = np.random.default_rng(11)
        for _ in range(3):
            for ps, pu in zip(params_s, params_u):
                g = rng.normal(size=ps.data.shape).astype(np.float32)
                ps.grad = g * np.float32(scaler.scale)
                pu.grad = g.copy()
            opt_s.step()
            opt_u.step()
        for ps, pu in zip(params_s, params_u):
            np.testing.assert_allclose(
                ps.data, pu.data, rtol=1e-6, atol=1e-7
            )

    def test_scaled_update_matches_unscaled_across_growth_tick(self):
        """The unscale factor on a growth tick is the *pre-growth* scale
        the gradients were actually produced under — growing the scale
        mid-step must not shrink that step's update by growth_factor."""
        scaler = LossScaler(init_scale=2.0**4, growth_interval=2)
        params_s, opt_s = _toy_sgdm("float32", scaler)
        params_u, opt_u = _toy_sgdm("float32", None)
        rng = np.random.default_rng(13)
        for _ in range(5):  # crosses growth ticks at steps 2 and 4
            live_scale = scaler.scale
            for ps, pu in zip(params_s, params_u):
                g = rng.normal(size=ps.data.shape).astype(np.float32)
                ps.grad = g * np.float32(live_scale)
                pu.grad = g.copy()
            opt_s.step()
            opt_u.step()
        assert scaler.scale > 2.0**4  # the scale really did grow
        for ps, pu in zip(params_s, params_u):
            np.testing.assert_allclose(
                ps.data, pu.data, rtol=1e-6, atol=1e-7
            )

    def test_growth_after_interval(self):
        scaler = LossScaler(init_scale=2.0, growth_interval=3)
        for _ in range(3):
            scaler.update(False)
        assert scaler.scale == 4.0

    def test_state_dict_round_trip(self):
        scaler = LossScaler(init_scale=2.0**6)
        scaler.update(True)
        scaler.update(False)
        fresh = LossScaler()
        fresh.load_state_dict(scaler.state_dict())
        assert fresh.scale == scaler.scale
        assert fresh.overflow_skips == scaler.overflow_skips


# -- parity across schedules and runtimes ------------------------------------


def _train_losses(runtime: str, mode_kw: dict, precision) -> np.ndarray:
    X, Y = _stream()
    model = FACTORY()
    common = dict(
        lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
        precision=precision, **mode_kw,
    )
    if runtime == "sim":
        stats = PipelineExecutor(model, **common).train(X, Y)
    elif runtime == "threaded":
        stats = ConcurrentPipelineRunner(
            model, lockstep=True, **common
        ).train(X, Y)
    else:
        stats = ProcessPipelineRunner(
            model, lockstep=True, model_factory=FACTORY, **common
        ).train(X, Y)
    return np.asarray(stats.losses, dtype=np.float64)


@pytest.mark.parametrize("label", sorted(SCHEDULES))
class TestFloat64IsUntouched:
    def test_explicit_float64_matches_golden(self, label):
        """precision='float64' reproduces the pinned hex goldens — the
        reference path is byte-identical to life before this module."""
        losses = _train_losses("sim", SCHEDULES[label], "float64")
        assert _hex(losses) == GOLDEN[label]["losses"]


class TestReducedPrecisionParity:
    @pytest.mark.concurrency(timeout=300)
    @pytest.mark.parametrize("runtime", ["sim", "threaded", "process"])
    @pytest.mark.parametrize("label", sorted(SCHEDULES))
    def test_float32_tracks_float64(self, label, runtime):
        policy = resolve_precision("float32")
        ref = _train_losses("sim", SCHEDULES[label], "float64")
        got = _train_losses(runtime, SCHEDULES[label], "float32")
        assert got.shape == ref.shape
        np.testing.assert_allclose(
            got, ref, rtol=policy.loss_rtol, atol=policy.loss_atol,
            err_msg=f"float32 {runtime}/{label} drifted past tolerance",
        )

    @pytest.mark.parametrize("label", sorted(SCHEDULES))
    def test_bf16_tracks_float64(self, label):
        policy = resolve_precision("bf16")
        ref = _train_losses("sim", SCHEDULES[label], "float64")
        got = _train_losses("sim", SCHEDULES[label], "bf16")
        np.testing.assert_allclose(
            got, ref, rtol=policy.loss_rtol, atol=policy.loss_atol,
            err_msg=f"bf16 sim/{label} drifted past tolerance",
        )

    @pytest.mark.concurrency
    def test_float32_lockstep_is_bit_exact_across_runtimes(self):
        """Reduced precision keeps the *lockstep* contract: threaded
        float32 equals sim float32 to the bit (same kernels, same
        order), even though both differ from float64 by rounding."""
        sim = _train_losses("sim", SCHEDULES["pb"], "float32")
        thr = _train_losses("threaded", SCHEDULES["pb"], "float32")
        assert _hex(sim) == _hex(thr)

    def test_bf16_weights_stay_on_grid(self):
        X, Y = _stream()
        model = FACTORY()
        ex = PipelineExecutor(
            model, lr=LR, momentum=MOMENTUM, precision="bf16", mode="pb"
        )
        ex.train(X, Y)
        for p in model.parameters():
            assert p.data.dtype == np.float32
            re = simulate_bf16(p.data)
            assert re.tobytes() == p.data.tobytes(), (
                "a trained weight left the bf16 grid"
            )

    def test_float32_rings_are_smaller(self):
        """Dtype-aware rings fall out of the one-time cast: every
        boundary slot of a float32 pipeline holds half the payload of
        its float64 twin (pure layout arithmetic, no process launch)."""
        from repro.pipeline.transport import (
            probe_boundary_layouts,
            slot_layout,
        )

        def ring_bytes(precision: str) -> int:
            engine = PipelineExecutor(FACTORY(), lr=LR, precision=precision)
            probe = engine.precision.cast_array(np.zeros((16, 3, 8, 8)))
            layouts = probe_boundary_layouts(engine.stages, probe)
            return sum(slot_layout(specs)[1] for specs in layouts)

        bytes64, bytes32 = ring_bytes("float64"), ring_bytes("float32")
        assert 0 < bytes32 <= 0.6 * bytes64


# -- rejection: serving-only modes and grid mismatches -----------------------


class TestRejection:
    def test_int8_cannot_drive_training_engine(self):
        with pytest.raises(ValueError, match="serving-only"):
            PipelineExecutor(FACTORY(), lr=LR, precision="int8")

    def test_int8_cannot_drive_optimizer(self):
        rng = np.random.default_rng(0)
        p = Parameter(rng.normal(size=(3,)))
        with pytest.raises(ValueError, match="serving-only"):
            SGDM([p], lr=0.1, precision="int8")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            resolve_precision("float16")

    def test_policy_passthrough(self):
        policy = PrecisionPolicy("float32")
        assert resolve_precision(policy) is policy
        assert resolve_precision(None).is_reference

    def test_sgdm_rejects_cross_precision_state(self):
        _, opt64 = _toy_sgdm("float64")
        _, opt32 = _toy_sgdm("float32")
        state = opt64.state_dict()
        with pytest.raises(ValueError, match="float32"):
            opt32.load_state_dict(state)

    def test_sgdm_rejects_dtype_mismatched_velocity(self):
        _, opt = _toy_sgdm("float32")
        state = opt.state_dict()
        state["velocity"] = [
            v.astype(np.float32) for v in state["velocity"]
        ]
        with pytest.raises(ValueError, match="precision mode 'float32'"):
            opt.load_state_dict(state)

    def test_sgdm_rejects_scaler_presence_mismatch(self):
        _, opt_plain = _toy_sgdm("float32", None)
        _, opt_scaled = _toy_sgdm("float32", LossScaler())
        with pytest.raises(ValueError, match="loss-scaler presence"):
            opt_scaled.load_state_dict(opt_plain.state_dict())
        with pytest.raises(ValueError, match="loss-scaler presence"):
            opt_plain.load_state_dict(opt_scaled.state_dict())

    def test_session_rejects_conflicting_dtype(self):
        from repro.serve import InferenceSession

        with pytest.raises(ValueError, match="conflicts with"):
            InferenceSession(
                FACTORY(), micro_batch=4, sample_shape=(3, 8, 8),
                dtype=np.float64, precision="float32",
            )
        # redundant-but-consistent dtype is fine
        session = InferenceSession(
            FACTORY(), micro_batch=4, sample_shape=(3, 8, 8),
            dtype=np.float32, precision="float32",
        )
        assert session.dtype == np.float32

    def test_stage_rejects_dtype_mismatched_state(self):
        m64 = FACTORY()
        m32 = FACTORY()
        st64 = PipelineStage(1, m64.stage_defs[1], 5, lr=LR)
        ex32 = PipelineExecutor(m32, lr=LR, precision="float32")
        state = st64.state_dict()
        with pytest.raises(ValueError, match="precision mode 'float32'"):
            ex32.stages[1].validate_state(state)

    def test_engine_state_round_trips_within_precision(self):
        """Same-precision save/load still works under float32."""
        X, Y = _stream()
        ex = PipelineExecutor(FACTORY(), lr=LR, precision="float32")
        ex.train(X, Y)
        state = ex.state_dict()
        fresh = PipelineExecutor(FACTORY(), lr=LR, precision="float32")
        fresh.load_state_dict(state)
        for p, q in zip(ex.model.parameters(), fresh.model.parameters()):
            assert p.data.tobytes() == q.data.tobytes()


# -- serving precision -------------------------------------------------------


class TestServingPrecision:
    def _sessions(self, mode, runtime="sim"):
        from repro.serve import InferenceSession

        ref = InferenceSession(
            FACTORY(), runtime=runtime, micro_batch=4,
            sample_shape=(3, 8, 8), model_factory=FACTORY,
        )
        reduced = InferenceSession(
            FACTORY(), runtime=runtime, micro_batch=4,
            sample_shape=(3, 8, 8), model_factory=FACTORY, precision=mode,
        )
        return ref, reduced

    def test_session_dtype_follows_precision(self):
        _, s32 = self._sessions("float32")
        assert s32.dtype == np.float32
        assert s32.precision.mode == "float32"
        assert "precision=float32" in s32.describe()
        for p in s32.model.parameters():
            assert p.data.dtype == np.float32

    @pytest.mark.parametrize("mode,rtol", [("float32", 1e-5), ("int8", 0.2)])
    def test_reduced_logits_track_reference(self, mode, rtol):
        ref, reduced = self._sessions(mode)
        X = np.random.default_rng(5).normal(size=(8, 3, 8, 8))
        out_ref = np.asarray(ref.infer(X).outputs, dtype=np.float64)
        out_red = np.asarray(reduced.infer(X).outputs, dtype=np.float64)
        np.testing.assert_allclose(out_red, out_ref, rtol=rtol, atol=rtol)

    @pytest.mark.concurrency(timeout=300)
    def test_process_backend_bit_exact_at_float32(self):
        """The serving parity contract survives precision: the process
        backend's float32 outputs equal ``forward_reference`` (also
        float32) bit-for-bit — rings carry float32 slots throughout."""
        _, s32 = self._sessions("float32", runtime="process")
        X = np.random.default_rng(6).normal(size=(8, 3, 8, 8))
        got = s32.infer(X).outputs
        ref = s32.forward_reference(X)
        assert np.asarray(got).dtype == np.float32
        assert _hex(got) == _hex(ref)

    @pytest.mark.parametrize("mode", ["float32", "bf16"])
    def test_from_engine_serves_in_the_engine_precision(self, mode):
        """A session on a reduced-precision engine computes in the
        engine's dtype, hex-equal to ``forward_reference`` of a session
        built with that precision; serving leaves the engine's next
        ``train()`` hex-identical to an engine that never served."""
        from repro.serve import InferenceSession

        X, Y = _stream()
        engines = [
            PipelineExecutor(
                FACTORY(), lr=LR, momentum=MOMENTUM, precision=mode
            )
            for _ in range(2)
        ]
        for engine in engines:
            engine.train(X, Y)
        served, never_served = engines
        dtype = served.precision.compute_dtype
        session = InferenceSession.from_engine(
            served, runtime="sim", micro_batch=4
        )
        assert session.dtype == dtype
        Xq = np.random.default_rng(8).normal(size=(6, 3, 8, 8))
        got = session.infer(Xq).outputs
        assert got.dtype == dtype
        twin = FACTORY()
        for p, q in zip(twin.parameters(), served.model.parameters()):
            p.data = q.data.copy()
        ref = InferenceSession(
            twin, micro_batch=4, precision=mode
        ).forward_reference(Xq)
        assert _hex(got) == _hex(ref)
        X2, Y2 = X[::-1].copy(), Y[::-1].copy()
        after = served.train(X2, Y2)
        control = never_served.train(X2, Y2)
        assert _hex(after.losses) == _hex(control.losses)
        for p, q in zip(
            served.model.parameters(), never_served.model.parameters()
        ):
            assert _hex(p.data) == _hex(q.data)

    def test_from_checkpoint_casts_once_at_load(self, tmp_path):
        from repro.pipeline.checkpoint import (
            capture_checkpoint,
            save_checkpoint,
        )
        from repro.serve import InferenceSession

        X, Y = _stream()
        engine = PipelineExecutor(FACTORY(), lr=LR, momentum=MOMENTUM)
        engine.train(X, Y)
        path = str(tmp_path / "train.ckpt")
        save_checkpoint(path, capture_checkpoint(engine))
        session = InferenceSession.from_checkpoint(
            path, FACTORY, runtime="sim", micro_batch=4,
            sample_shape=(3, 8, 8), precision="int8",
        )
        assert session.precision.mode == "int8"
        for p in session.model.parameters():
            # int8 grid: dequantized float32 storage
            assert p.data.dtype == np.float32
        ref = InferenceSession.from_checkpoint(
            path, FACTORY, runtime="sim", micro_batch=4,
            sample_shape=(3, 8, 8),
        )
        Xq = np.random.default_rng(7).normal(size=(6, 3, 8, 8))
        out_q = np.asarray(session.infer(Xq).outputs, dtype=np.float64)
        out_f = np.asarray(ref.infer(Xq).outputs, dtype=np.float64)
        np.testing.assert_allclose(out_q, out_f, rtol=0.2, atol=0.2)

    @pytest.mark.concurrency(timeout=300)
    def test_stats_endpoint_reports_precision(self):
        import json
        import urllib.request

        from repro.serve import InferenceSession, PipelineServer

        session = InferenceSession(
            FACTORY(), runtime="threaded", micro_batch=4,
            sample_shape=(3, 8, 8), precision="float32",
        )
        with PipelineServer(session) as server:
            host, port = server.serve_http()
            x = np.random.default_rng(8).normal(size=(3, 8, 8))
            body = json.dumps({"x": x.tolist()}).encode()
            req = urllib.request.Request(
                f"http://{host}:{port}/infer",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=10) as resp:
                payload = json.loads(resp.read())
            assert len(payload["logits"]) == 4
            with urllib.request.urlopen(
                f"http://{host}:{port}/stats", timeout=10
            ) as resp:
                stats = json.loads(resp.read())
        assert stats["precision"] == "float32"
        assert stats["completed"] >= 1


# -- control-plane stats (the one plan-driven protocol) ---------------------


@pytest.mark.concurrency(timeout=300)
class TestControlPlaneStats:
    def test_process_lockstep_runs_the_plan_without_acks(self):
        X, Y = _stream()
        runner = ProcessPipelineRunner(
            FACTORY(), lr=LR, momentum=MOMENTUM, mode="pb",
            lockstep=True, model_factory=FACTORY,
        )
        stats = runner.train(X, Y)
        control = stats.control
        assert control is not None
        assert control["protocol"] == "plan"
        assert control["time_steps"] == stats.time_steps
        assert control["num_stages"] == stats.num_stages
        # workers run their own columns: no per-tick message, no ack —
        # the only control traffic is one reply per worker
        assert control["acks_received"] == 0
        # a lockstep run hosts stage groups: one reply per group
        K = len(control["groups"])
        assert control["msgs_received"] == K
        assert control["msgs_per_step"] == K / stats.time_steps
        assert control["msgs_per_step"] <= 1.0
        assert "ack_interval" not in control
        assert "baseline_msgs_per_step" not in control

    def test_free_mode_runs_the_plan_without_acks(self, cpu_per_stage):
        """Free-running workers run their plan column too: the same
        record, with the plan's tick count."""
        X, Y = _stream(8)
        runner = ProcessPipelineRunner(
            FACTORY(), lr=LR, mode="pb", lockstep=False,
            model_factory=FACTORY,
        )
        stats = runner.train(X, Y)
        control = stats.control
        assert control["protocol"] == "plan"
        assert control["time_steps"] == stats.time_steps
        assert control["acks_received"] == 0
        assert control["msgs_received"] == stats.num_stages
