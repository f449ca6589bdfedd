"""The three workloads: one program, three sets of inputs.

Every workload drives the same program end to end — train a stage-graph
model on the pipeline runtimes (simulator and thread-per-stage;
process-per-stage in the layered pass only), checkpoint it, serve the
checkpoint from one ``PipelineServer`` on two backends, then (layered
pass only) from a two-replica ``FleetRouter`` across a rolling weight
reload — so every metric exists on every workload.  What differs is the
*input*: model and partition, schedule and packet width, and the
serving traffic.  ``README.md`` says why each was chosen and which
layers it stresses.

Sizes are counts, not durations, so loss after N samples is comparable
across commits.  They are sized so that, on the 2-core box the baseline
was taken on, the timed phases of one end-to-end run add up to a little
under ``RUN_SECONDS``; ``--seconds`` scales every count by
``seconds / RUN_SECONDS``.  A part of a phase — one ``train()`` call, a
group of consecutive completions — keeps its size at every scale: a
smaller run has fewer parts, not shorter ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

#: ``run_seconds`` of BENCHMARK.json — the scale at which sizes apply
RUN_SECONDS = 30
#: every dataset pool is drawn once from this seed; the run's ``--seed``
#: picks the order samples and requests are taken from it, so runs with
#: different seeds see different inputs from one distribution
POOL_SEED = 0
#: most distinct training samples a pool holds
POOL_SAMPLES = 4096
#: distinct request payloads the load generators cycle through
REQUEST_POOL = 256
#: share of a full run the traced run and the smoke run execute
TRACE_SCALE = 0.25
SMOKE_SCALE = 0.1

RUNTIMES = ("sim", "threaded", "process")
SERVE_BACKENDS = ("threaded", "process")
#: what the end-to-end pass times: training on these runtimes, and these
#: loops of the single server per backend.  Process-backed training, the
#: threaded server's closed loop and the whole fleet run in the layered
#: pass only: their numbers did not hold a bound on the baseline host
#: (README, "Demoted")
E2E_RUNTIMES = ("sim", "threaded")
E2E_SERVE_LOOPS = {"threaded": ("open",), "process": ("closed", "open")}


@dataclass(frozen=True)
class TrainInputs:
    mode: str
    update_size: int
    micro_batch: int
    #: samples streamed through each runtime's timed phase in one run
    samples: dict
    #: samples per ``train()`` call of the end-to-end pass, per runtime
    #: it times (``E2E_RUNTIMES``): one call is one timed
    #: part, and the shorter a part the likelier the host leaves it
    #: alone (same phase, same minutes: the 95th percentile of 7 ms
    #: parts moved 1.6 % between runs, of 30 ms parts 4.5 %).  Simulator
    #: calls are 5-10 ms (they cost nothing to start), threaded ones
    #: 20-30 ms (threads start per call, under 1 ms).  The process
    #: runtime trains in the layered pass only, in one call
    call: dict
    lr: float = 0.01
    momentum: float = 0.9


@dataclass(frozen=True)
class ServeInputs:
    max_batch: int
    #: closed loop: requests in flight, requests per backend in one run,
    #: and consecutive completions per timed part (about 50 ms worth)
    window: int
    closed_requests: dict
    closed_part: dict
    #: open loop: Poisson rate (req/s) and requests per backend
    open_rate: float
    open_requests: int
    max_wait: float = 0.002
    #: deep enough that no host stall this side of ten seconds refuses a
    #: request: the contract wants workloads on which no operation fails,
    #: and a refusal that depends on the host's mood is not a property of
    #: the program
    max_queue: int = 4096


@dataclass(frozen=True)
class FleetInputs:
    #: share of requests per SLO class, assigned by request id
    mix: dict
    closed_requests: int
    closed_part: int
    open_rate: float
    open_requests: int
    #: fire ``rolling_reload`` this far into the open loop (share of its
    #: nominal duration); ``None`` reloads after the loop has drained
    reload_at: float | None
    replicas: int = 2
    window: int = 8
    #: per replica.  bench_fleet.py uses 8, which a 30 ms host stall at
    #: 300 req/s overflows; during the rolling reload one replica is not
    #: ready, capacity halves, and the interactive class may hold half of
    #: that.  Deep for the same reason as ``ServeInputs.max_queue``
    max_queue: int = 2048


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: builder in ``repro.models.simple`` + its arguments
    model: str
    model_args: tuple
    model_kwargs: dict
    image_size: int
    train: TrainInputs
    serve: ServeInputs
    fleet: FleetInputs

    @property
    def sample_shape(self) -> tuple:
        return (3, self.image_size, self.image_size)

    def model_factory(self) -> Callable:
        """Spawn-safe recipe for a fresh model at its seeded init
        (imported here so the parent process never loads numpy)."""
        from repro.models import simple

        return partial(
            getattr(simple, self.model), *self.model_args,
            **self.model_kwargs,
        )


_MIXED = {"interactive": 0.7, "batch": 0.3}
_SINGLE = {"interactive": 1.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pb_cnn_b1",
            why=(
                "paper regime, compute-bound: 5-stage CNN, pb at update "
                "and packet size 1, 16x16 inputs; conv GEMMs in "
                "tensor/nn/stage dominate training and serving"
            ),
            model="small_cnn", model_args=(),
            model_kwargs=dict(num_classes=10, widths=(32, 64), seed=3),
            image_size=16,
            train=TrainInputs(
                mode="pb", update_size=1, micro_batch=1,
                samples={"sim": 1400, "threaded": 1280, "process": 1600},
                call={"sim": 2, "threaded": 8},
            ),
            serve=ServeInputs(
                max_batch=8, window=16,
                closed_requests={"threaded": 5760, "process": 5760},
                closed_part={"threaded": 144, "process": 144},
                open_rate=200.0, open_requests=1200,
            ),
            fleet=FleetInputs(
                mix=_MIXED, closed_requests=4000, closed_part=100,
                open_rate=160.0, open_requests=500, reload_at=0.35,
            ),
        ),
        Workload(
            name="gpipe_mlp_mb16",
            why=(
                "overhead- and bubble-bound: 7-stage MLP, synchronous "
                "gpipe, update 32 in packets of 16; tiny GEMMs, so "
                "executor/runtime/transport/control plane dominate"
            ),
            model="mlp", model_args=(192, 10),
            model_kwargs=dict(hidden=(256, 256, 256, 256), seed=3),
            image_size=8,
            train=TrainInputs(
                mode="gpipe", update_size=32, micro_batch=16,
                samples={"sim": 25600, "threaded": 25600, "process": 7680},
                call={"sim": 32, "threaded": 128},
            ),
            serve=ServeInputs(
                max_batch=16, window=32,
                closed_requests={"threaded": 36000, "process": 12800},
                closed_part={"threaded": 1200, "process": 320},
                open_rate=400.0, open_requests=2000,
            ),
            fleet=FleetInputs(
                mix=_MIXED, closed_requests=8000, closed_part=200,
                open_rate=300.0, open_requests=1000, reload_at=0.35,
            ),
        ),
        Workload(
            name="serve_cnn_single",
            why=(
                "per-packet-overhead-bound: small CNN (8x8) trained by pb "
                "at packet size 1; served under light single-class "
                "traffic, where batcher wait and stream hops set latency, "
                "not queueing"
            ),
            model="small_cnn", model_args=(),
            model_kwargs=dict(num_classes=10, widths=(16, 32), seed=11),
            image_size=8,
            train=TrainInputs(
                mode="pb", update_size=1, micro_batch=1,
                samples={"sim": 4000, "threaded": 4000, "process": 3200},
                call={"sim": 8, "threaded": 16},
            ),
            serve=ServeInputs(
                max_batch=8, window=16,
                closed_requests={"threaded": 16800, "process": 9600},
                closed_part={"threaded": 560, "process": 240},
                open_rate=400.0, open_requests=2000,
            ),
            fleet=FleetInputs(
                mix=_SINGLE, closed_requests=7200, closed_part=180,
                open_rate=300.0, open_requests=1000, reload_at=None,
            ),
        ),
    )
}


def scaled(count: int, scale: float, multiple: int = 1) -> int:
    """``count * scale`` rounded to a positive multiple of ``multiple``."""
    return max(1, round(count * scale / multiple)) * multiple
