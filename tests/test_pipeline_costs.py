"""Appendix-A cost model: activation memory, parameters, communication."""

import pytest

from repro.models import resnet_tiny, small_cnn
from repro.pipeline.costs import (
    batch_parallel_activation_elements,
    data_parallel_comm_per_update,
    pipeline_comm_per_step,
    pipeline_cost_model,
)


class TestPipelineCostModel:
    def test_stage_costs_cover_all_stages(self):
        m = small_cnn(widths=(4, 8))
        cm = pipeline_cost_model(m, (3, 8, 8))
        assert len(cm.stage_costs) == m.num_stages

    def test_parameter_totals_match_model(self):
        m = resnet_tiny(widths=(4, 8, 8))
        cm = pipeline_cost_model(m, (3, 8, 8))
        assert cm.total_parameter_elements == m.num_parameters()

    def test_in_flight_follows_delay_law(self):
        m = small_cnn(widths=(4, 8))
        cm = pipeline_cost_model(m, (3, 8, 8))
        S = m.num_stages
        for sc in cm.stage_costs:
            assert sc.max_in_flight == 2 * (S - 1 - sc.index)

    def test_early_stages_hold_the_most(self):
        """Appendix A: 'the first worker must store its activations for 2W
        steps, the second for 2(W-1)...'"""
        m = small_cnn(widths=(8, 8))
        cm = pipeline_cost_model(m, (3, 8, 8))
        assert (
            cm.stage_costs[0].max_in_flight
            > cm.stage_costs[-2].max_in_flight
        )
        assert cm.stage_costs[-1].stash_elements == 0  # loss stage

    def test_activation_sizes_match_forward_shapes(self):
        m = small_cnn(widths=(4, 8))
        cm = pipeline_cost_model(m, (3, 8, 8))
        # conv stages keep 8x8 spatial with 4 then 8 channels
        assert cm.stage_costs[0].activation_elements == 4 * 8 * 8
        assert cm.stage_costs[1].activation_elements == 8 * 8 * 8
        # pooling stage reduces to channel vector
        assert cm.stage_costs[2].activation_elements == 8

    def test_residual_skip_attributed_to_pushing_stage(self):
        m = resnet_tiny(widths=(4, 8, 8), blocks_per_group=1)
        cm = pipeline_cost_model(m, (3, 8, 8))
        by_name = {sc.name: sc for sc in cm.stage_costs}
        # the first block's conv1 pushes a skip: its payload contribution
        # includes both the conv output and the skip copy
        conv1 = by_name["g0b0_conv1"]
        assert conv1.activation_elements > 4 * 8 * 8

    def test_one_parameter_copy(self):
        m = small_cnn()
        cm = pipeline_cost_model(m, (3, 8, 8))
        assert cm.per_worker_parameter_copies() == 1


class TestComparisons:
    def test_batch_parallel_activation_memory_scales_with_batch(self):
        m = small_cnn(widths=(4, 8))
        one = batch_parallel_activation_elements(m, (3, 8, 8), 1)
        many = batch_parallel_activation_elements(m, (3, 8, 8), 32)
        assert many == 32 * one

    def test_total_activation_memory_same_order(self):
        """Appendix A: total activation memory is O(L*W) in both modes."""
        m = small_cnn(widths=(8, 8, 8, 8))
        cm = pipeline_cost_model(m, (3, 8, 8))
        S = m.num_stages
        # batch parallel with W = S workers at per-worker batch 1
        batch_total = S * batch_parallel_activation_elements(m, (3, 8, 8), 1)
        pipe_total = cm.total_stash_elements
        assert 0.05 < pipe_total / batch_total < 20.0

    def test_communication_patterns(self):
        """Pipeline workers exchange activations; data-parallel workers
        exchange the full gradient."""
        m = resnet_tiny(widths=(4, 8, 8))
        per_step = pipeline_comm_per_step(m, (3, 8, 8))
        assert len(per_step) == m.num_stages
        dp = data_parallel_comm_per_update(m)
        assert dp == m.num_parameters()
        # for this conv net, any single stage's activation traffic per
        # step is far below a full-model gradient exchange
        assert max(per_step) < dp
