"""The shared search-step engine behind every RL search strategy.

:class:`SearchEngine` holds the pipeline every strategy shares as
explicit, individually-timed stages

    ``sample -> fetch_shard -> score -> price -> reward ->
    policy_update -> weight_update``

and the paper's unified step over them, written once
(:meth:`SearchEngine._shard_step`), so a strategy is reduced to *stage
configuration*: its sampler and which halves of that step run (the H2O
single-step search, elastic training, per-target specialization), or
its own order of the same stages (TuNAS alternates a weight step on the
train split with a policy step on the validation split).

Per-core work — shard scoring — fans out through an
:class:`~repro.core.engine.backends.ExecutionBackend`.  Three rules keep
every backend bit-identical to serial execution:

* only pure tasks are fanned out: stacked supernet passes, deterministic
  functions of their payloads;
* reductions are order-preserving — per-core results are gathered in
  shard order, so means, REINFORCE updates, and gradient accumulation
  see the same operand order regardless of completion order;
* everything stateful (stochastic quality signals, the accumulation of
  the shard's gradient into the shared parameters, pipeline
  bookkeeping, the controller) stays on the engine thread in strict
  shard order.

The engine also owns the stepwise checkpoint protocol (``step()`` /
``build_result()`` / ``state_dict()``) that the fault-tolerant runtime
drives.  No backend state rides in a snapshot: a restored engine marks
its weights dirty, so they reach the workers before its first remote
fan-out.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from ...data.batch import Batch
from ...searchspace.base import Architecture, SearchSpace
from ...supernet.batching import StackedScoring
from ..controller import ReinforceController
from ..eval_runtime import (
    STAGE_FETCH_SHARD,
    STAGE_POLICY_UPDATE,
    STAGE_PRICE,
    STAGE_REWARD,
    STAGE_SAMPLE,
    STAGE_SCORE,
    STAGE_WEIGHT_UPDATE,
    ArchKey,
    EvalRuntime,
    EvalRuntimeStats,
    arch_key,
)
from ..reward import RewardFunction
from .backends import resolve_backend
from .worker import (
    StageTask,
    build_remote_context,
    execute_stage_kind,
    payload_nbytes,
    quality_many_payloads,
    run_stage_task,
    train_many_payloads,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ...nn import Adam
    from ...telemetry import Telemetry

PerformanceFn = Callable[[Architecture], Mapping[str, float]]

#: One sampled candidate: (architecture, decision-index vector).
DrawnCandidate = Tuple[Architecture, Sequence[int]]


class SuperNetwork(Protocol):
    """What the searches need from a super-network."""

    def quality(self, arch: Architecture, inputs, labels) -> float: ...

    def loss(self, arch: Architecture, inputs, labels): ...

    def parameters(self): ...

    def zero_grad(self) -> None: ...


def group_unique_architectures(
    drawn: Sequence[DrawnCandidate],
) -> List[List[int]]:
    """Shard positions grouped by sampled architecture, first-seen order.

    Late in a search the policy has converged and most of the
    ``num_cores`` cores sample the *same* architecture; grouping them
    lets the score and weight-update stages run one super-network pass
    per unique architecture instead of one per core — and gives the
    execution backend its unit of fan-out.
    """
    groups: "OrderedDict[ArchKey, List[int]]" = OrderedDict()
    for position, (_, indices) in enumerate(drawn):
        groups.setdefault(arch_key(indices), []).append(position)
    return list(groups.values())


@dataclass
class CandidateRecord:
    """One evaluated candidate within one search step."""

    architecture: Architecture
    quality: float
    metrics: Dict[str, float]
    reward: float


@dataclass
class StepRecord:
    """Aggregate view of one search step."""

    step: int
    mean_reward: float
    mean_quality: float
    policy_entropy: float
    candidates: List[CandidateRecord] = field(default_factory=list)


@dataclass
class SearchResult:
    """Outcome of a completed search.

    ``eval_stats`` carries the evaluation runtime's instrumentation:
    cache hit/miss counters and per-stage wall time
    (sample/fetch_shard/score/price/reward/policy_update/weight_update).
    """

    final_architecture: Architecture
    history: List[StepRecord]
    batches_used: int
    eval_stats: Optional[EvalRuntimeStats] = None

    def rewards(self) -> np.ndarray:
        return np.array([s.mean_reward for s in self.history])

    def entropies(self) -> np.ndarray:
        return np.array([s.policy_entropy for s in self.history])


@dataclass(frozen=True)
class SearchConfig:
    """Knobs shared by both search algorithms."""

    steps: int = 100
    num_cores: int = 4  # parallel accelerators (single-step search only)
    policy_lr: float = 0.3
    policy_entropy_coef: float = 0.0  # exploration bonus for the controller
    warmup_steps: int = 10  # weight-only steps before policy updates begin
    record_candidates: bool = True
    seed: int = 0
    use_cache: bool = True  # memoize performance_fn by decision indices
    #: execution backend for per-core fan-out: a name (``"serial"`` /
    #: ``"processes"`` / ``"distributed"``), or ``None`` to consult
    #: ``$REPRO_BACKEND`` and default to serial.
    #: All backends are bit-identical by contract.
    backend: Optional[str] = None
    #: worker count for pooled backends (``None``: ``$REPRO_WORKERS``,
    #: then min(4, cores))
    workers: Optional[int] = None
    #: shared :class:`repro.telemetry.Telemetry` handle; when set, the
    #: search records per-step spans, reward/entropy/penalty gauges and
    #: step events, attaches it to its eval runtime and pipeline, and
    #: includes run-scoped counter state in checkpoint snapshots
    telemetry: Optional["Telemetry"] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.steps < 1 or self.num_cores < 1:
            raise ValueError("steps and num_cores must be >= 1")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")


def _record_step_telemetry(
    telemetry: Optional["Telemetry"], record: StepRecord
) -> None:
    """Account one completed step to the shared telemetry (no-op if off).

    ``search.penalty`` is the mean cost the reward function charged the
    shard (quality minus reward) — positive when hardware targets are
    being missed, ~0 once the policy prices candidates on target.
    """
    if telemetry is None:
        return
    telemetry.counter("search.steps").inc()
    telemetry.gauge("search.reward").set(record.mean_reward)
    telemetry.gauge("search.quality").set(record.mean_quality)
    telemetry.gauge("search.entropy").set(record.policy_entropy)
    telemetry.gauge("search.penalty").set(record.mean_quality - record.mean_reward)
    telemetry.event(
        "search.step",
        step=record.step,
        reward=record.mean_reward,
        quality=record.mean_quality,
        entropy=record.policy_entropy,
    )


class SearchEngine:
    """Composable step pipeline shared by every RL search strategy.

    Subclasses implement :meth:`_step` — the halves of
    :meth:`_shard_step` they run, or their own order of the stage
    primitives below; construction, telemetry wiring, the stepwise
    checkpoint protocol and fan-out placement are shared here.
    """

    #: how long the first remote placement waits for a worker to link
    worker_timeout = 30.0

    def __init__(
        self,
        space: SearchSpace,
        supernet: SuperNetwork,
        pipeline: Any,
        reward_fn: RewardFunction,
        performance_fn: PerformanceFn,
        config: Optional[SearchConfig] = None,
    ):
        config = config if config is not None else SearchConfig()
        self.space = space
        self.supernet = supernet
        self.pipeline = pipeline
        self.reward_fn = reward_fn
        self.performance_fn = performance_fn
        self.config = config
        self.telemetry = config.telemetry
        self.backend = resolve_backend(config.backend, workers=config.workers)
        self.runtime = EvalRuntime(performance_fn, space=space, use_cache=config.use_cache)
        if self.telemetry is not None:
            self.runtime.attach_telemetry(self.telemetry)
            self.pipeline.attach_telemetry(self.telemetry)
            self.telemetry.gauge("engine.workers").set(
                self.backend.workers, backend=self.backend.name
            )
        self.controller = ReinforceController(
            space,
            learning_rate=config.policy_lr,
            entropy_coef=config.policy_entropy_coef,
            seed=config.seed,
        )
        from ...nn import Adam

        self._optimizer: "Adam" = Adam(supernet.parameters(), lr=0.005)
        self._warmup_rng = np.random.default_rng(config.seed + 1)
        # Remote backends (processes, distributed) score against a
        # supernet each worker rehydrates once: the engine registers it
        # on the backend's shared cluster and owns that context.  Weights
        # are published lazily, when a fan-out ships and they changed
        # since the last one that did.  With a single worker, or a
        # supernet that cannot travel, there is no context and every
        # stage stays in this process.
        self._remote_ctx = None
        self._weights_dirty = False
        self._waited = False
        self._worker_loss_total = 0
        if self.backend.remote and self.backend.workers > 1:
            self._register_remote_context()

    def _register_remote_context(self) -> None:
        """Publish the supernet to the backend's shared cluster: the
        context remote fan-outs score against (``None`` if it cannot
        travel).  Its cluster's worker losses so far are not this
        search's, and a new cluster is worth one wait for a worker."""
        ctx = self._remote_ctx = build_remote_context(
            self.supernet, self.backend.cluster, self.config.num_cores
        )
        self._waited = False
        if ctx is not None:
            self._worker_loss_total = ctx.cluster.worker_losses
            # Garbage collection may run this under a lock release()
            # needs: queue the release, never perform it.
            weakref.finalize(self, ctx.release_later)

    # ------------------------------------------------------------------
    # Stepwise driver protocol (checkpointed execution)
    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        history = [self.step(step) for step in range(self.config.steps)]
        return self.build_result(history)

    def step(self, step: int) -> StepRecord:
        """Run one search step; the unit the supervisor checkpoints at."""
        if self.telemetry is None:
            return self._step(step)
        with self.telemetry.span("step"):
            record = self._step(step)
        _record_step_telemetry(self.telemetry, record)
        self._record_backend_telemetry()
        return record

    def _record_backend_telemetry(self) -> None:
        """Mirror the context's cluster's worker-loss counter into telemetry.

        Worker losses are real external events (a process died), not
        replayable search state, so they land on the churn-scoped
        ``supervisor.`` prefix — like restarts and testbed retries, they
        must keep counting across a crash/resume rather than roll back
        with the snapshot.
        """
        if self._remote_ctx is None:
            return
        cluster = self._remote_ctx.cluster
        # Connected worker hosts is live membership, not replayable
        # state: a gauge, refreshed every step (hosts join and drop at
        # any time under the distributed backend).
        self.telemetry.gauge("engine.hosts").set(
            float(cluster.host_count), backend=self.backend.name
        )
        losses = cluster.worker_losses
        delta = losses - self._worker_loss_total
        if delta > 0:
            self.telemetry.counter("supervisor.worker_losses").inc(
                delta, backend=self.backend.name
            )
        self._worker_loss_total = losses

    def build_result(self, history: Sequence[StepRecord]) -> SearchResult:
        """Assemble the result from externally-driven step records."""
        return SearchResult(
            final_architecture=self.controller.best_architecture(),
            history=list(history),
            batches_used=self._batches_used(),
            eval_stats=self.runtime.stats(),
        )

    def _step(self, step: int) -> StepRecord:
        raise NotImplementedError

    def _batches_used(self) -> int:
        return self.pipeline.batches_issued

    def _shard_step(
        self,
        step: int,
        sample: Optional[Callable[[], List[DrawnCandidate]]] = None,
        *,
        policy: bool,
        weights: bool,
    ) -> StepRecord:
        """The unified step (Figure 2, right): every stage on one fresh shard.

        ``sample`` draws the strategy's shard (default: the policy's,
        uniform during warmup); ``policy`` is the price/reward/
        policy-update half, ``weights`` the weight update on the same
        batches.  A half that is off opens no stage timer:
        without ``policy`` the reward is the quality, without
        ``weights`` the scored batches go back to the pipeline (frozen
        weights never train on them).
        """
        cfg = self.config
        runtime = self.runtime
        pipeline = self.pipeline
        warming_up = step < cfg.warmup_steps  # weight-only steps
        with runtime.timed(STAGE_SAMPLE):
            drawn = sample() if sample else self.sample_shard(cfg.num_cores, warming_up)
        with runtime.timed(STAGE_FETCH_SHARD):
            batches = pipeline.next_shard(cfg.num_cores)
        groups = group_unique_architectures(drawn)
        # The policy consumes the batches first.  A step that will train
        # on them scores and finishes their gradient in one pass per group.
        with runtime.timed(STAGE_SCORE):
            qualities = self.score_shard(drawn, batches, groups, trains_on_shard=weights)
            for batch in batches:
                pipeline.mark_policy_use(batch)
                if not weights:
                    pipeline.release(batch)
        if policy:
            with runtime.timed(STAGE_PRICE):
                all_metrics = self.price_shard(drawn)
            with runtime.timed(STAGE_REWARD):
                candidates, samples = self.assemble_candidates(drawn, qualities, all_metrics)
            if not warming_up:
                with runtime.timed(STAGE_POLICY_UPDATE):
                    self.policy_update(samples)
        else:
            candidates = [
                CandidateRecord(arch, float(q), {}, float(q))
                for (arch, _), q in zip(drawn, qualities)
            ]
        if weights:
            with runtime.timed(STAGE_WEIGHT_UPDATE):
                self.accumulate_shard_gradient(drawn, batches)
                for batch in batches:
                    pipeline.mark_weight_use(batch)
                self.optimizer_step()
        return self.make_record(step, candidates)

    # ------------------------------------------------------------------
    # Checkpoint state
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything this search mutates, for bit-identical resume."""
        from ...runtime.checkpoint import supernet_state

        state = {
            "controller": self.controller.state_dict(),
            "optimizer": self._optimizer.state_dict(),
            "supernet": supernet_state(self.supernet),
            "warmup_rng": self._warmup_rng.bit_generator.state,
            "pipeline": self.pipeline.state_dict(),
            "runtime": self.runtime.export_state(),
        }
        if self.telemetry is not None:
            state["telemetry"] = self.telemetry.export_state()
        return state

    def load_state_dict(self, state: Mapping) -> None:
        from ...runtime.checkpoint import restore_supernet_state

        self.controller.load_state_dict(state["controller"])
        self._optimizer.load_state_dict(state["optimizer"])
        self._writing_weights()
        restore_supernet_state(self.supernet, state["supernet"])
        self._warmup_rng.bit_generator.state = state["warmup_rng"]
        self.pipeline.load_state_dict(state["pipeline"])
        self.runtime.import_state(state["runtime"])
        telemetry_state = state.get("telemetry")
        if self.telemetry is not None and telemetry_state is not None:
            self.telemetry.import_state(telemetry_state)

    # ------------------------------------------------------------------
    # Score fan-out
    # ------------------------------------------------------------------
    def _remote_active(self, tasks: int = 2) -> bool:
        """The placement rule (DESIGN.md §12): whether a fan-out of
        ``tasks`` stage tasks ships to workers.  Decided here only.

        It ships iff there are two tasks or more, a context is
        registered for *this* supernet (one swapped in after
        construction — a fault-injection proxy — is not what the workers
        rehydrated) and a worker is linked.  The first ask spends
        :attr:`worker_timeout` waiting for one and later asks only look,
        so a search bound for external workers that nobody dialled into
        stalls one time, not on every fan-out.  A context whose cluster
        ``shutdown_pools()`` closed is registered again on the one that
        replaced it.  Everything else runs in this process against the
        live supernet, and publishes nothing.
        """
        ctx = self._remote_ctx
        if tasks < 2 or ctx is None or ctx.supernet is not self.supernet:
            return False
        if ctx.cluster is not self.backend.cluster():
            ctx.release()
            self._register_remote_context()
            ctx = self._remote_ctx
            if ctx is None:
                return False
        timeout = 0.0 if self._waited else self.worker_timeout
        self._waited = True
        return ctx.cluster.wait_for_workers(1, timeout) >= 1

    def _fan_out_tasks(
        self, stage: str, kind: str, payloads: Sequence[Tuple[Any, ...]]
    ) -> List[Any]:
        """Ship closure-free stage tasks through the backend.

        The current weights are published first (if dirty), and every
        task carries the resulting version so no worker scores against
        stale parameters.  Workers time themselves and report who they
        are; accounting happens here on the engine thread, including the
        IPC volume: batch arrays out, ``train_many`` gradients back.
        """
        if self._weights_dirty:
            self._remote_ctx.publish()
            self._weights_dirty = False
        ref = self._remote_ctx.ref()
        tasks = [
            StageTask(stage=stage, kind=kind, context=ref, payload=payload)
            for payload in payloads
        ]
        results = self.backend.map(run_stage_task, tasks)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.counter("engine.tasks").inc(
                len(tasks), stage=stage, backend=self.backend.name
            )
            moved = payload_nbytes(tasks)
            if kind == "train_many":
                arrays = self._remote_ctx.param_arrays
                moved += sum(arrays[i].nbytes for value, _, _ in results for i in value[1])
            telemetry.counter("engine.ipc.bytes").inc(moved, backend=self.backend.name)
            for _, seconds, worker_id in results:
                telemetry.trace.record(
                    "worker",
                    seconds,
                    stage=stage,
                    backend=self.backend.name,
                    worker=worker_id,
                )
        return [value for value, _, _ in results]

    def _score(self, kind: str, payloads: Sequence[Tuple[Any, ...]]) -> List[Any]:
        """One score fan-out: ``kind`` payloads shipped as stage tasks,
        or run in-process — the same :func:`~.worker.execute_stage_kind`
        dispatch either way.  In process nothing is a task: the score
        stage's own timer covers the loop."""
        if self._remote_active(len(payloads)):
            return self._fan_out_tasks(STAGE_SCORE, kind, payloads)
        return self.backend.map(
            lambda payload: execute_stage_kind(self.supernet, kind, payload), payloads
        )

    # ------------------------------------------------------------------
    # Stage primitives
    # ------------------------------------------------------------------
    def sample_shard(self, count: int, warming_up: bool) -> List[DrawnCandidate]:
        """Stage *sample*: draw the shard's candidates.

        Warmup steps draw uniformly from the search space (weight-only
        training); afterwards the shard comes from one vectorized policy
        draw.  Both paths consume their rng streams on the engine thread
        so sampling is identical across backends.
        """
        if warming_up:
            return self._uniform_shard(self.space, count)
        return self.controller.sample_many(count)

    def _uniform_shard(self, space: SearchSpace, count: int) -> List[DrawnCandidate]:
        """``count`` uniform draws from ``space``, indexed in the full space."""
        archs = [space.sample(self._warmup_rng) for _ in range(count)]
        return [(arch, self.space.indices_of(arch)) for arch in archs]

    def score_shard(
        self,
        drawn: Sequence[DrawnCandidate],
        batches: Sequence[Batch],
        groups: List[List[int]],
        trains_on_shard: bool = False,
    ) -> List[float]:
        """Stage *score*: per-core qualities, each core on its own batch.

        Supernets implementing :class:`~repro.supernet.StackedScoring`
        run one deterministic stacked pass per unique architecture,
        fanned out across the backend's workers.  Everything else scores
        serially, in core order, so stochastic quality signals consume
        their rng streams exactly as the sequential implementation did.

        ``trains_on_shard`` is the strategy saying it trains on this same
        shard, with the weights untouched until :meth:`optimizer_step`.
        The gradients are zeroed first, and for a stacked supernet this
        call also finishes the shard's gradient: one grouped pass, the
        supernet's ``quality_and_loss_many``, serves both, the qualities
        coming off the logits under each group's loss.  In this process
        every group's pass runs, then each loss's ``backward`` in group
        order.  When the fan-out ships (:meth:`_remote_active`: two
        groups or more) each group is one ``train_many`` task: the
        worker runs forward *and* backward from zero, and each group's
        gradient (through the context's gradient image, or in the result
        frame over TCP) is reduced as ``backward`` would have: the first
        group's copied, the rest added, in group order — bit-identical
        because every parameter receives one contribution per group pass
        (DESIGN.md §10).
        """
        if trains_on_shard:
            self._optimizer.zero_grad()  # its fixed list: no module-tree walk
        if not isinstance(self.supernet, StackedScoring):
            return [
                self.supernet.quality(arch, batch.inputs, batch.labels)
                for batch, (arch, _) in zip(batches, drawn)
            ]
        payloads = quality_many_payloads(drawn, batches, groups)
        num_cores = self.config.num_cores
        if not trains_on_shard:
            per_group = self._score("quality_many", payloads)
        elif (
            len({batch.size for batch in batches}) == 1
            and self._remote_active(len(groups))
        ):
            # (Unequal batches take ``loss_many``'s per-batch fallback:
            # several contributions per parameter per group, which a
            # per-group reduce cannot reproduce.)
            payloads = train_many_payloads(payloads, groups, num_cores)
            results = self._fan_out_tasks(STAGE_SCORE, "train_many", payloads)
            ctx = self._remote_ctx
            for slot, (_, active, arrays) in enumerate(results):
                if arrays is None:  # in the image, not in the result
                    arrays = [ctx.gradients.views[slot][i] for i in active]
                for i, array in zip(active, arrays):
                    ctx.params[i]._accumulate(array)
            per_group = [values for values, _, _ in results]
        else:
            passes = self.backend.map(
                lambda payload: self.supernet.quality_and_loss_many(*payload), payloads
            )
            for positions, (_, loss) in zip(groups, passes):
                loss.backward(np.asarray(len(positions) / num_cores))
            per_group = [values for values, _ in passes]
        qualities: List[float] = [0.0] * len(drawn)
        for positions, values in zip(groups, per_group):
            for position, value in zip(positions, values):
                qualities[position] = float(value)
        return qualities

    def score_on_batch(
        self, drawn: Sequence[DrawnCandidate], batch: Batch
    ) -> List[float]:
        """Stage *score*, shared-batch variant: every candidate on one
        validation batch (the TuNAS policy step).

        :meth:`score_shard` with every core on the same batch and each
        candidate a group of its own.
        """
        singletons = [[position] for position in range(len(drawn))]
        return self.score_shard(drawn, [batch] * len(drawn), singletons)

    def price_shard(
        self, drawn: Sequence[DrawnCandidate]
    ) -> List[Dict[str, float]]:
        """Stage *price*: the whole shard through the memoized runtime.

        Cache misses share one vectorized evaluation when the
        performance fn is batchable.
        """
        return self.runtime.price_many(drawn)

    def assemble_candidates(
        self,
        drawn: Sequence[DrawnCandidate],
        qualities: Sequence[float],
        all_metrics: Sequence[Mapping[str, float]],
    ) -> Tuple[List[CandidateRecord], List[Tuple[np.ndarray, float]]]:
        """Stage *reward*: fold qualities and metrics into rewards.

        Returns the step's candidate records plus the ``(indices,
        reward)`` pairs the policy update consumes.
        """
        candidates: List[CandidateRecord] = []
        samples: List[Tuple[np.ndarray, float]] = []
        for (arch, indices), quality, metrics in zip(drawn, qualities, all_metrics):
            reward = self.reward_fn(quality, metrics)
            samples.append((indices, reward))
            candidates.append(CandidateRecord(arch, quality, dict(metrics), reward))
        return candidates, samples

    def policy_update(self, samples: Sequence[Tuple[np.ndarray, float]]) -> None:
        """Stage *policy_update*: one cross-shard REINFORCE step.

        Always on the engine thread — the update must see the gathered
        shard in order, and stays bit-identical across backends because
        every input to it does.
        """
        self.controller.update(samples)

    def accumulate_shard_gradient(
        self, drawn: Sequence[DrawnCandidate], batches: Sequence[Batch]
    ) -> None:
        """Stage *weight_update* (gradient half), for supernets without
        :class:`~repro.supernet.StackedScoring`: each core backprops
        ``loss_i / num_cores`` on the engine thread, in core order.  A
        stacked supernet's gradient is already whole:
        ``score_shard(..., trains_on_shard=True)`` finished it.
        """
        if isinstance(self.supernet, StackedScoring):
            return
        for batch, (arch, _) in zip(batches, drawn):
            loss = self.supernet.loss(arch, batch.inputs, batch.labels)
            # The scale seeds the backward: the same floats as a
            # ``loss * scale`` node's, one node fewer.
            loss.backward(np.asarray(1.0 / self.config.num_cores))

    def _writing_weights(self) -> None:
        """Every write to the live weights starts here.  The context's
        version goes odd (a worker's task stamped with the last one must
        not run on weights that move), and the dirty flag tells the next
        fan-out that ships to publish the next version."""
        if self._remote_ctx is not None:
            self._remote_ctx.begin_write()
        self._weights_dirty = True

    def optimizer_step(self) -> None:
        """Apply the accumulated weight gradients; every weight update
        comes through here (see :meth:`_writing_weights`)."""
        self._writing_weights()
        self._optimizer.step()

    def train_weights_on(self, arch: Architecture, batch: Batch) -> None:
        """Stage *weight_update*, single-candidate variant (TuNAS train
        split): one forward/backward plus an optimizer step."""
        self._optimizer.zero_grad()
        self.supernet.loss(arch, batch.inputs, batch.labels).backward()
        self.optimizer_step()

    def make_record(
        self, step: int, candidates: Sequence[CandidateRecord]
    ) -> StepRecord:
        """Aggregate one completed step into its history record."""
        return StepRecord(
            step=step,
            mean_reward=float(np.mean([c.reward for c in candidates])),
            mean_quality=float(np.mean([c.quality for c in candidates])),
            policy_entropy=self.controller.entropy(),
            candidates=list(candidates) if self.config.record_candidates else [],
        )
