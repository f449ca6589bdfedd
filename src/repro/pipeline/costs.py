"""Memory and communication cost models (paper Appendix A).

Appendix A compares batch parallelism and pipeline parallelism on three
axes; this module makes those comparisons quantitative for any stage
graph:

* **Activation memory** — batch parallelism stores activations for ~every
  layer on each of ``W`` workers: ``O(L*W)`` total.  Pipeline parallelism
  stores, at stage ``s``, one activation per in-flight sample — the stage
  holds samples for ``2(S-1-s)`` steps — totalling ``sum_s 2(S-1-s) =
  S(S-1)`` stashed activations, i.e. the *same order* ``O(L*W)`` when
  ``L ~ S ~ W``, but distributed very unevenly (early stages hold the
  most).
* **Parameter memory** — pipeline parallelism keeps exactly one copy of
  each parameter (its owning stage); plain data parallelism keeps ``W``
  copies.
* **Communication** — a pipeline worker exchanges activations and
  activation-gradients with its neighbours each step; a data-parallel
  worker exchanges *all* model gradients/parameters each update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.arch import StageGraphModel
from repro.pipeline.delays import stage_delay


@dataclass(frozen=True)
class StageCost:
    """Per-stage cost summary (units: array elements)."""

    index: int
    name: str
    params: int
    activation_elements: int  # one sample's output activation size
    max_in_flight: int  # samples stashed between F and B
    stash_elements: int  # activation_elements * max_in_flight


@dataclass(frozen=True)
class PipelineCostModel:
    """Aggregate pipeline-parallel costs for one model + input shape."""

    stage_costs: list[StageCost]

    @property
    def total_parameter_elements(self) -> int:
        return sum(s.params for s in self.stage_costs)

    @property
    def total_stash_elements(self) -> int:
        return sum(s.stash_elements for s in self.stage_costs)

    @property
    def peak_stage_stash(self) -> int:
        return max((s.stash_elements for s in self.stage_costs), default=0)

    def per_worker_parameter_copies(self) -> int:
        """Pipeline parallelism keeps one copy of each parameter."""
        return 1


def _activation_sizes(
    model: StageGraphModel, input_shape: tuple[int, int, int]
) -> list[int]:
    """Output activation element-count per stage for one sample.

    Runs a single no-grad forward, recording each stage's main-channel
    output size (skip channels are attributed to the pushing stage).
    """
    from repro.tensor.tensor import Tensor, no_grad

    sizes: list[int] = []
    x = Tensor(np.zeros((1, *input_shape)))
    main = x
    skips: list = []
    with no_grad():
        for st in model.stage_defs:
            extra = 0
            if st.kind == "compute":
                if st.channel == -1:
                    skips[-1] = st.module(skips[-1])
                    extra = skips[-1].size
                elif st.push_skip == "input":
                    skips.append(main)
                    extra = main.size
                    main = st.module(main)
                elif st.push_skip == "preact":
                    main, pre = st.module.forward_parts(main)
                    skips.append(pre)
                    extra = pre.size
                else:
                    main = st.module(main)
            elif st.kind == "sum":
                main = main + skips.pop()
            sizes.append(int(main.size) + int(extra))
    return sizes


def pipeline_cost_model(
    model: StageGraphModel, input_shape: tuple[int, int, int]
) -> PipelineCostModel:
    """Build the Appendix-A cost model for a stage graph."""
    sizes = _activation_sizes(model, input_shape)
    S = model.num_stages
    costs = []
    for i, st in enumerate(model.stage_defs):
        params = (
            sum(p.size for p in st.module.parameters()) if st.module else 0
        )
        in_flight = stage_delay(i, S)
        costs.append(
            StageCost(
                index=i,
                name=st.name,
                params=params,
                activation_elements=sizes[i],
                max_in_flight=in_flight,
                stash_elements=sizes[i] * in_flight,
            )
        )
    return PipelineCostModel(stage_costs=costs)


def batch_parallel_activation_elements(
    model: StageGraphModel,
    input_shape: tuple[int, int, int],
    per_worker_batch: int,
) -> int:
    """Activation memory of ONE data-parallel worker (all layers stored)."""
    sizes = _activation_sizes(model, input_shape)
    return sum(sizes) * per_worker_batch


def data_parallel_comm_per_update(model: StageGraphModel) -> int:
    """Elements a data-parallel worker sends per update (all gradients)."""
    return sum(p.size for p in model.parameters())


def pipeline_comm_per_step(
    model: StageGraphModel, input_shape: tuple[int, int, int]
) -> list[int]:
    """Elements each pipeline worker sends per step.

    A stage forwards its output activation and returns a gradient of its
    input activation: ~2x its input/output activation size.
    """
    sizes = _activation_sizes(model, input_shape)
    return [2 * s for s in sizes]
