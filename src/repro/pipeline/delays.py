"""The pipeline delay law and its projection to flat delay profiles.

With ``S`` stages, one forward and one backward transformation per stage
per time step, and update size one, stage ``s``'s gradient is computed from
weights that are ``D_s = 2(S-1-s)`` updates old (paper §2, eq. 5).  The
last stage has zero delay; the first has the maximum ``2(S-1)``.

:func:`pipeline_delay_profile` maps those per-stage delays onto a
:class:`~repro.core.staleness.PerParamDelay` so the flat Appendix-G.2
simulator can emulate a pipeline run at batch size ``B`` — the delay in
optimizer steps is then ``round(D_s / B)`` (the paper's Appendix E/F
experiments quote delays in "samples" for exactly this reason).
"""

from __future__ import annotations

from repro.core.staleness import PerParamDelay
from repro.models.arch import StageGraphModel


def stage_delay(index: int, num_stages: int) -> int:
    """Gradient delay (in updates at update-size one) of stage ``index``."""
    if not 0 <= index < num_stages:
        raise ValueError(f"stage index {index} out of range [0, {num_stages})")
    return 2 * (num_stages - 1 - index)


def pipeline_delay_profile(
    model: StageGraphModel, sim_batch_size: int = 1
) -> PerParamDelay:
    """Per-parameter delay profile emulating the model's pipeline.

    ``sim_batch_size`` converts sample-delays to optimizer-step delays when
    the flat simulator trains with batches (delay in steps =
    ``round(D_s / B)``).
    """
    sample_delays = {
        pid: stage_delay(s, model.num_stages)
        for pid, s in model.param_stage_index().items()
    }
    return PerParamDelay.from_sample_delays(sample_delays, sim_batch_size)


def stage_delay_table(model: StageGraphModel) -> list[dict]:
    """Row per stage: index, name, kind, delay, parameter count."""
    s_count = model.num_stages
    rows = []
    for i, st in enumerate(model.stage_defs):
        rows.append(
            {
                "stage": i,
                "name": st.name,
                "kind": st.kind,
                "delay": stage_delay(i, s_count),
                "params": sum(p.size for p in st.module.parameters())
                if st.module
                else 0,
            }
        )
    return rows
