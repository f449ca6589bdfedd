"""Pipelined-backpropagation trainer (drives the cycle-accurate executor).

Implements the paper's experimental protocol: hyperparameters come from a
*reference* batch-size configuration and are scaled to update size one via
eq. 9, the model trains sample-by-sample through the fine-grained pipeline,
and evaluation runs on the (master) weights between epochs.
"""

from __future__ import annotations

from typing import Callable

from repro.core.mitigation import MitigationConfig
from repro.data.loader import ResumableSampleStream
from repro.data.synthetic import Dataset
from repro.models.arch import StageGraphModel
from repro.optim.scaling import HE_CIFAR_REFERENCE, HyperParams
from repro.pipeline.runtime import make_pipeline_engine
from repro.pipeline.schedule import Schedule, make_schedule
from repro.train.metrics import TrainingHistory, evaluate
from repro.utils.rng import derive_seed, new_rng


class PipelinedTrainer:
    """Train a stage-graph model through the pipeline engine.

    Parameters
    ----------
    model:
        A :class:`StageGraphModel`.
    dataset:
        Train/val arrays.
    mitigation:
        The delay mitigation (default: none — plain PB).
    reference:
        Reference hyperparameters, scaled via eq. 9 to the schedule's
        effective update size — 1 for the per-gradient schedules (``pb``,
        ``1f1b``), ``update_size`` for the synchronous ones
        (``fill_drain``, ``gpipe``) — (default: the He et al. CIFAR
        setup).
    mode:
        Schedule name: ``"pb"``, ``"fill_drain"``, ``"gpipe"`` or
        ``"1f1b"`` (``update_size`` / ``micro_batch_size`` apply to the
        synchronous schedules).
    schedule:
        A ready-made :class:`~repro.pipeline.schedule.Schedule`; wins
        over ``mode`` when given.
    runtime:
        ``"sim"`` (default) trains through the discrete-time
        :class:`~repro.pipeline.executor.PipelineExecutor`;
        ``"threaded"`` through the concurrent
        :class:`~repro.pipeline.runtime.ConcurrentPipelineRunner` with
        one worker thread per stage; ``"process"`` through the
        :class:`~repro.pipeline.runtime.ProcessPipelineRunner` with one
        worker *process* per stage and shared-memory packet transport
        (the only backend whose stages execute on separate cores).
    lockstep:
        Only with the concurrent runtimes: ``True`` adds the
        per-time-step barrier that makes the run bit-exact with the
        simulator; the default ``False`` free-runs (fastest, but
        ``pb``/``1f1b`` trajectories then depend on worker timing — see
        ``runtime.py``).
    replicas:
        Hybrid parallelism: ``R > 1`` (process runtime only) trains
        ``R`` data-parallel pipeline replicas through a
        :class:`~repro.pipeline.runtime.ReplicatedPipelineRunner`.  For
        the synchronous schedules the *effective* update size becomes
        ``R * update_size`` (gradients reduce across replicas at every
        barrier), and the eq.-9 hyperparameter scaling keys off that
        effective size — so ``R`` replicas at update size ``U`` train
        the exact trajectory of one pipeline at ``R*U``.
    engine_kwargs:
        Extra engine-specific keyword arguments (e.g. ``start_method``
        for the process backend, and the ``model_factory`` that
        ``"spawn"`` and ``replicas > 1`` require).
    """

    def __init__(
        self,
        model: StageGraphModel,
        dataset: Dataset,
        mitigation: MitigationConfig | None = None,
        reference: HyperParams = HE_CIFAR_REFERENCE,
        mode: str = "pb",
        update_size: int = 1,
        micro_batch_size: int = 1,
        augment=None,
        lr_schedule: Callable[[int], float] | None = None,
        seed: int = 0,
        label: str | None = None,
        schedule: Schedule | None = None,
        runtime: str = "sim",
        lockstep: bool = False,
        replicas: int = 1,
        **engine_kwargs,
    ):
        self.model = model
        self.dataset = dataset
        self.mitigation = mitigation or MitigationConfig.none()
        self.replicas = int(replicas)
        if schedule is None:
            schedule = make_schedule(
                mode, update_size=update_size, micro_batch_size=micro_batch_size
            )
        elif self.replicas > 1:
            raise ValueError(
                "replicas > 1 derives per-replica and global schedules "
                "from mode/update_size/micro_batch_size; a ready-made "
                "schedule object cannot be split across replicas"
            )
        self.schedule = schedule
        # eq. 9 scales to the *effective* update size: synchronous
        # replicas reduce into one global update of R*U samples, while
        # the asynchronous schedules keep per-gradient updates per
        # replica (update size unchanged)
        effective_update = schedule.update_size
        if self.replicas > 1 and not schedule.update_after_backward(0):
            effective_update *= self.replicas
        scaled = reference.scaled_to(effective_update)
        self.hyperparams = scaled
        self.runtime = runtime
        kwargs = dict(
            lr=scaled.lr,
            momentum=scaled.momentum,
            weight_decay=scaled.weight_decay,
            mitigation=self.mitigation,
            lr_schedule=lr_schedule,
            **engine_kwargs,
        )
        if self.replicas > 1:
            kwargs.update(
                mode=mode,
                update_size=update_size,
                micro_batch_size=micro_batch_size,
                replicas=self.replicas,
            )
        else:
            kwargs["schedule"] = schedule
        self.executor = make_pipeline_engine(
            runtime, model, lockstep=lockstep, **kwargs
        )
        self.augment = augment
        self.rng = new_rng(derive_seed(seed, "pb_trainer"))
        self.history = TrainingHistory(label=label or self.mitigation.name)

    def _stream(self, epochs: int) -> ResumableSampleStream:
        """The lazy shuffled sample stream for this trainer's dataset —
        one epoch in memory at a time, resumable cursor for the
        checkpoint subsystem."""
        ds = self.dataset
        return ResumableSampleStream(
            ds.x_train, ds.y_train, epochs, self.rng, augment=self.augment
        )

    def train_epochs(self, epochs: int, eval_every: int = 1) -> TrainingHistory:
        """Stream ``epochs`` shuffled passes through the pipeline.

        ``eval_every`` must be >= 1 (the final epoch is always
        evaluated); pass a value larger than ``epochs`` to evaluate only
        at the end.
        """
        if eval_every < 1:
            raise ValueError(
                f"eval_every must be >= 1, got {eval_every} (use a value "
                "larger than epochs to evaluate only at the end)"
            )
        ds = self.dataset
        stream = self._stream(int(epochs))
        per_epoch = stream.samples_per_epoch
        for epoch in range(int(epochs)):
            self.model.train()
            xs, ys = stream.next_chunk(per_epoch)
            stats = self.executor.train(xs, ys)
            if (epoch + 1) % eval_every == 0 or epoch == epochs - 1:
                val_loss, val_acc = evaluate(self.model, ds.x_val, ds.y_val)
                self.history.record(
                    self.executor.samples_completed,
                    stats.mean_loss,
                    val_loss,
                    val_acc,
                )
        return self.history

    def train_samples(self, num_samples: int) -> TrainingHistory:
        """Stream exactly ``num_samples`` (with reshuffled epochs) and
        evaluate once at the end."""
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        ds = self.dataset
        n = ds.x_train.shape[0]
        epochs = max(1, -(-num_samples // n))  # ceil
        stream = self._stream(epochs)
        xs, ys = stream.next_chunk(int(num_samples))
        self.model.train()
        stats = self.executor.train(xs, ys)
        val_loss, val_acc = evaluate(self.model, ds.x_val, ds.y_val)
        self.history.record(
            self.executor.samples_completed, stats.mean_loss, val_loss, val_acc
        )
        return self.history
