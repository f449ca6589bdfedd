"""Delays, schedules, utilization formulas, and stage-graph validation."""

import numpy as np
import pytest

from repro.core.staleness import PerParamDelay
from repro.models import resnet_tiny, small_cnn, vgg_tiny
from repro.models.arch import StageDef
from repro.nn import ReLU
from repro.pipeline import (
    fill_drain_utilization,
    pb_occupancy,
    pb_utilization,
    pipeline_delay_profile,
    render_occupancy,
    schedule_utilization,
    stage_delay,
    stage_delay_table,
    utilization_upper_bound,
    validate_stage_graph,
)
from repro.pipeline.occupancy import fill_drain_occupancy


class TestDelayLaw:
    def test_last_stage_zero_delay(self):
        assert stage_delay(9, 10) == 0

    def test_first_stage_max_delay(self):
        assert stage_delay(0, 10) == 18

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            stage_delay(10, 10)

    def test_profile_covers_all_params(self):
        m = resnet_tiny()
        profile = pipeline_delay_profile(m)
        assert isinstance(profile, PerParamDelay)
        assert set(profile.mapping) == {id(p) for p in m.parameters()}

    def test_profile_batch_scaling(self):
        m = small_cnn()
        p1 = pipeline_delay_profile(m, sim_batch_size=1)
        p8 = pipeline_delay_profile(m, sim_batch_size=8)
        for pid in p1.mapping:
            assert p8.mapping[pid] == int(round(p1.mapping[pid] / 8))

    def test_delay_table(self):
        m = small_cnn()
        rows = stage_delay_table(m)
        assert len(rows) == m.num_stages
        assert rows[-1]["delay"] == 0
        assert rows[0]["delay"] == 2 * (m.num_stages - 1)


class TestSchedules:
    def test_pb_occupancy_observed_delays(self):
        occ = pb_occupancy(num_stages=6, num_samples=20)
        # each stage's forward-to-backward distance of sample 0
        observed = [
            int(np.argmax(occ.bwd_sample[s] == 0))
            - int(np.argmax(occ.fwd_sample[s] == 0))
            for s in range(6)
        ]
        assert observed == [2 * (6 - 1 - s) for s in range(6)]

    def test_pb_steady_state_full_utilization(self):
        occ = pb_occupancy(num_stages=4, num_samples=400)
        # interior columns (after fill, before drain) are fully busy
        interior = occ.grid[:, 8:-8]
        assert np.all(interior == 3)  # BOTH

    def test_pb_utilization_matches_formula(self):
        S, n = 5, 100
        occ = pb_occupancy(S, n)
        assert schedule_utilization(occ) == pytest.approx(pb_utilization(S, n))

    def test_fill_drain_utilization_matches_formula(self):
        S, N = 7, 4
        occ = fill_drain_occupancy(S, N, num_batches=3)
        assert schedule_utilization(occ) == pytest.approx(
            fill_drain_utilization(S, N)
        )

    def test_eq1_upper_bound_is_above_exact(self):
        for S in [2, 10, 50]:
            for N in [1, 8, 128]:
                assert fill_drain_utilization(S, N) >= utilization_upper_bound(
                    S, N
                ) - 1e-12

    def test_large_batch_beats_small_batch(self):
        """Figure 2 top vs middle: larger batches fill the pipeline better."""
        assert fill_drain_utilization(20, 128) > fill_drain_utilization(20, 4)

    def test_pb_beats_fill_drain(self):
        """Figure 2 bottom: PB over a long stream beats any fill/drain batch."""
        assert pb_utilization(20, 10_000) > fill_drain_utilization(20, 128)

    def test_render(self):
        occ = pb_occupancy(3, 5)
        text = render_occupancy(occ)
        assert "stage   0" in text and "F" in text and "B" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            utilization_upper_bound(0, 1)
        with pytest.raises(ValueError):
            fill_drain_utilization(1, 0)


class TestStageGraphValidation:
    def test_models_validate(self):
        for model in [small_cnn(), resnet_tiny(), vgg_tiny()]:
            validate_stage_graph(model.stage_defs)

    def test_sum_without_push_rejected(self):
        stages = [
            StageDef("a", module=ReLU()),
            StageDef("s", kind="sum"),
            StageDef("loss", kind="loss"),
        ]
        with pytest.raises(ValueError, match="empty stack"):
            validate_stage_graph(stages)

    def test_unbalanced_push_rejected(self):
        stages = [
            StageDef("a", module=ReLU(), push_skip="input"),
            StageDef("loss", kind="loss"),
        ]
        with pytest.raises(ValueError, match="unconsumed"):
            validate_stage_graph(stages)

    def test_missing_loss_rejected(self):
        with pytest.raises(ValueError):
            validate_stage_graph([StageDef("a", module=ReLU())])

    def test_skip_channel_on_empty_stack_rejected(self):
        stages = [
            StageDef("a", module=ReLU(), channel=-1),
            StageDef("loss", kind="loss"),
        ]
        with pytest.raises(ValueError, match="empty skip stack"):
            validate_stage_graph(stages)
