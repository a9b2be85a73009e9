"""Job specs and job execution: what one queue entry actually runs.

A job is a parameterized search: a validated :class:`JobSpec` (the
dict a client submits), a factory building the search from it, and
:func:`run_job`, which drives the search under
:func:`~repro.runtime.supervisor.run_with_checkpoints` inside the
job's private run directory::

    <spool>/runs/<job_id>/checkpoints/   resumable snapshots
    <spool>/runs/<job_id>/telemetry/     per-job metrics + event stream
    <spool>/runs/<job_id>/results.json   final payload, atomic write

Results carry a canonical SHA-256 ``fingerprint`` over the
numerics-bearing fields (rewards, entropies, final architecture,
cache counters).  Because checkpointed, resumed, and backend-pooled
runs are all bit-identical to a one-shot serial run, a service job's
fingerprint must equal :func:`one_shot_payload` of the same spec — the
property the durability test and the service benchmark assert.

The quickstart DLRM builder lives here (not in the CLI) so the daemon,
the CLI's ``search``/``supervise`` commands, and the benchmarks share
one definition of the workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..runtime.atomic import atomic_write_json
from .protocol import JobSpecError

RESULTS_NAME = "results.json"
CHECKPOINTS_DIRNAME = "checkpoints"
TELEMETRY_DIRNAME = "telemetry"

#: Result payload layout version.
RESULTS_SCHEMA = 1

#: Known job kinds -> builder. One kind today; the registry is the
#: extension point for new workloads (LM serving space, Pareto sweeps).
JOB_KINDS = ("dlrm_quickstart",)


# ----------------------------------------------------------------------
# The quickstart DLRM workload (shared with the CLI)
# ----------------------------------------------------------------------
def dlrm_step_time(num_tables: int):
    """Synthetic step-time pricing for the quickstart DLRM search."""

    def step_time(arch):
        cost = 1.0
        for t in range(num_tables):
            cost += 0.05 * arch[f"emb{t}/width_delta"]
            cost += 0.15 * (arch[f"emb{t}/vocab_scale"] - 1.0)
        for s in range(2):
            cost += 0.04 * arch[f"dense{s}/width_delta"]
        return {"step_time": max(0.1, cost)}

    return step_time


#: embedding tables of the quickstart DLRM
_NUM_TABLES = 2


def _quickstart_space():
    """The quickstart DLRM search space."""
    from ..searchspace import DlrmSpaceConfig, dlrm_search_space

    return dlrm_search_space(DlrmSpaceConfig(num_tables=_NUM_TABLES, num_dense_stacks=2))


def _quickstart_parts(seed: int):
    """A fresh ``(batch source, supernet)`` pair of the quickstart workload."""
    from ..data import CtrTaskConfig, CtrTeacher
    from ..supernet import DlrmSuperNetwork, DlrmSupernetConfig

    teacher = CtrTeacher(CtrTaskConfig(num_tables=_NUM_TABLES, batch_size=64, seed=seed))
    supernet = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=_NUM_TABLES, seed=seed))
    return teacher.next_batch, supernet


def _quickstart_config(steps, seed, warmup_steps, use_cache, telemetry, backend, workers):
    """The quickstart shape (four cores) around a builder's own arguments."""
    from ..core import SearchConfig

    return SearchConfig(
        steps=steps, num_cores=4, warmup_steps=warmup_steps, seed=seed,
        use_cache=use_cache, telemetry=telemetry, backend=backend, workers=workers,
    )


def dlrm_search_builder(
    steps: int,
    seed: int,
    use_cache: bool,
    telemetry=None,
    backend=None,
    workers=None,
):
    """The quickstart DLRM search as ``(space, fresh-H2ONas factory)``.

    A *factory* rather than an instance because the supervisor and the
    service scheduler rebuild the search from scratch on every restart
    attempt.  A shared ``telemetry`` handle survives restarts — that is
    how churn counters span attempts while run-scoped ones roll back
    with the checkpoint.
    """
    from ..core import H2ONas, PerformanceObjective

    space = _quickstart_space()

    def factory() -> "H2ONas":
        batch_source, supernet = _quickstart_parts(seed)
        return H2ONas(
            space=space,
            supernet=supernet,
            batch_source=batch_source,
            performance_fn=dlrm_step_time(_NUM_TABLES),
            objectives=[PerformanceObjective("step_time", 1.0, beta=-0.5)],
            config=_quickstart_config(
                steps, seed, 10, use_cache, telemetry, backend, workers
            ),
        )

    return space, factory


# ----------------------------------------------------------------------
# The once-for-all elastic workload (train once, specialize per target)
# ----------------------------------------------------------------------
def elastic_training_builder(
    steps: int,
    seed: int,
    use_cache: bool = True,
    telemetry=None,
    backend=None,
    workers=None,
    schedule=None,
):
    """The quickstart elastic training as ``(space, schedule, factory)``.

    Same DLRM workload as :func:`dlrm_search_builder`, but trained as a
    once-for-all elastic supernet: uniform candidates under the
    progressive-shrinking ``schedule`` (default: the stock three-phase
    schedule over ``steps``), weight updates only, no policy.
    """
    from ..core.elastic import ElasticTraining
    from ..data import SingleStepPipeline
    from ..supernet import ShrinkSchedule

    space = _quickstart_space()
    schedule = schedule or ShrinkSchedule.default(steps)

    def factory() -> "ElasticTraining":
        batch_source, supernet = _quickstart_parts(seed)
        return ElasticTraining(
            space,
            supernet,
            SingleStepPipeline(batch_source),
            schedule=schedule,
            config=_quickstart_config(
                steps, seed, 0, use_cache, telemetry, backend, workers
            ),
        )

    return space, schedule, factory


def platform_performance_fn(space, platform_name):
    """Simulator-backed pricing of quickstart-DLRM candidates on one target.

    Returns ``(harness, performance_fn, objectives)``: the timing
    harness pointed at the target platform for both training and
    serving, self-normalized latency/size objectives (targets are
    the *baseline* architecture's metrics on that platform, so every
    target prices candidates against its own roofline), and a pricing
    callable for exactly the metrics those objectives read — a
    specialization never lowers the training graph.
    """
    from ..core import PerformanceObjective
    from ..hardware import platform
    from ..models import DlrmTimingHarness, baseline_production_dlrm

    hw = platform(platform_name)
    harness = DlrmTimingHarness(
        baseline_production_dlrm(num_tables=_NUM_TABLES), train_hw=hw, serve_hw=hw, seed=0
    )
    baseline_metrics = harness.metrics_from_simulator(space.default_architecture())
    objectives = [
        PerformanceObjective(
            "serving_latency", baseline_metrics["serving_latency"], beta=-2.0
        ),
        PerformanceObjective(
            "model_size", baseline_metrics["model_size"], beta=-0.5
        ),
    ]
    return harness, harness.pricing([o.metric for o in objectives]), objectives


def _specialization(
    artifact_dir, platform_name, steps, seed, use_cache, telemetry, backend, workers
):
    """:func:`specialization_builder` plus the target's timing harness,
    as ``(space, harness, factory)``."""
    from ..core import relu_reward
    from ..core.elastic import SpecializationSearch
    from ..data import SingleStepPipeline
    from ..runtime import restore_elastic_supernet

    space = _quickstart_space()
    harness, performance_fn, objectives = platform_performance_fn(
        space, platform_name
    )

    def factory() -> "SpecializationSearch":
        batch_source, supernet = _quickstart_parts(seed)
        restore_elastic_supernet(artifact_dir, supernet, space)
        return SpecializationSearch(
            space,
            supernet,
            SingleStepPipeline(batch_source),
            reward_fn=relu_reward(objectives),
            performance_fn=performance_fn,
            config=_quickstart_config(
                steps, seed, 0, use_cache, telemetry, backend, workers
            ),
        )

    return space, harness, factory


def specialization_builder(
    artifact_dir,
    platform_name: str,
    steps: int,
    seed: int,
    use_cache: bool = True,
    telemetry=None,
    backend=None,
    workers=None,
):
    """A policy-only specialization against a trained elastic artifact.

    Returns ``(space, factory)``; the factory restores the artifact's
    frozen weights into a fresh supernet *before* engine construction,
    so remote backends publish the trained weights (never republished —
    the optimizer never steps) and the run stays cache-hot.
    """
    space, _, factory = _specialization(
        artifact_dir, platform_name, steps, seed, use_cache, telemetry, backend, workers
    )
    return space, factory


def fleet_sweep(
    artifact_dir,
    steps: int,
    seed: int,
    platforms=None,
    use_cache: bool = True,
    backend=None,
    workers=None,
    cluster_chips: int = 8,
):
    """Specialize one trained artifact for every fleet target.

    Runs one :func:`specialization_builder` search per platform (all
    against the same frozen weights) and returns the marked-Pareto
    :class:`~repro.analysis.fleet.FleetEntry` rows: per-device final
    architecture, quality/reward, simulated timing on that device, its
    scaling bottleneck, and data-parallel cluster throughput.
    """
    from dataclasses import replace

    from ..analysis import FleetEntry, mark_pareto
    from ..hardware import ClusterModel, PLATFORMS, bottleneck, simulate
    from ..models.dlrm import build_graph

    names = list(platforms) if platforms is not None else list(PLATFORMS)
    entries = []
    for name in names:
        space, harness, factory = _specialization(
            artifact_dir, name, steps, seed, use_cache, None, backend, workers
        )
        hw = harness.serve_hw
        result = factory().run()
        final = result.final_architecture
        # lowered once: the spec and its training graph feed the timing,
        # the bottleneck and the cluster model
        spec = harness.spec_of(final)
        train_graph = build_graph(spec)
        metrics = harness.price_lowered([spec], ("serving_latency", "model_size"))[0]
        metrics["train_step_time"] = simulate(train_graph, hw).total_time_s
        step = ClusterModel(
            hw, lambda per_chip, _spec=spec: build_graph(replace(_spec, batch=per_chip))
        ).step(cluster_chips, cluster_chips * spec.batch)
        last = result.history[-1]
        entries.append(
            FleetEntry(
                platform=hw.name,
                indices=[int(i) for i in space.indices_of(final)],
                architecture={k: _scalar(v) for k, v in final.items()},
                quality=float(last.mean_quality),
                reward=float(last.mean_reward),
                train_step_time=float(metrics["train_step_time"]),
                serving_latency=float(metrics["serving_latency"]),
                model_size=float(metrics["model_size"]),
                bottleneck=bottleneck(train_graph, hw),
                cluster_chips=cluster_chips,
                cluster_step_time_s=float(step.step_time_s),
                examples_per_second=float(step.examples_per_second),
                communication_bound=bool(step.communication_bound),
            )
        )
    return mark_pareto(entries)


# ----------------------------------------------------------------------
# Job spec
# ----------------------------------------------------------------------
def _is_int(value: Any) -> bool:
    """An ``int`` that is not a ``bool`` (JSON ``true`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class JobSpec:
    """Validated search parameters a client may submit."""

    kind: str = "dlrm_quickstart"
    steps: int = 20
    seed: int = 0
    cache: bool = True
    #: steps between durable snapshots while the job runs; 1 maximizes
    #: resumability (at most one step is ever replayed after a kill)
    checkpoint_every: int = 1
    #: artificial per-step latency, applied *outside* the search step
    #: (telemetry/scheduling only — numerics are untouched).  Models an
    #: attached-accelerator or testbed wait; also what lets tests hold a
    #: job in ``running`` long enough to kill the daemon under it.
    step_sleep_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise JobSpecError(
                f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}"
            )
        if not _is_int(self.steps) or self.steps < 1:
            raise JobSpecError("spec.steps must be an integer >= 1")
        if not _is_int(self.seed):
            raise JobSpecError("spec.seed must be an integer")
        if not isinstance(self.cache, bool):
            raise JobSpecError("spec.cache must be true or false")
        if not _is_int(self.checkpoint_every) or self.checkpoint_every < 1:
            raise JobSpecError("spec.checkpoint_every must be an integer >= 1")
        if not 0 <= self.step_sleep_s < math.inf:  # NaN compares false
            raise JobSpecError("spec.step_sleep_s must be a finite number >= 0")

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        if not isinstance(payload, dict):
            raise JobSpecError("spec must be a JSON object")
        unknown = set(payload) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise JobSpecError(
                f"unknown spec fields {sorted(unknown)}; "
                f"allowed: {sorted(cls.__dataclass_fields__)}"
            )
        try:
            return cls(**payload)
        except TypeError as error:
            raise JobSpecError(f"bad spec: {error}") from None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "steps": self.steps,
            "seed": self.seed,
            "cache": self.cache,
            "checkpoint_every": self.checkpoint_every,
            "step_sleep_s": self.step_sleep_s,
        }


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def _scalar(value: Any) -> Any:
    """Canonical JSON scalar: bools/ints/strs pass, numerics to float."""
    if isinstance(value, (bool, int, str)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return _scalar(value.item())
    return float(value)


def result_payload(space: Any, result: Any) -> Dict[str, Any]:
    """Canonical, fingerprinted JSON payload for a ``SearchResult``."""
    stats = result.eval_stats
    body: Dict[str, Any] = {
        "schema": RESULTS_SCHEMA,
        "steps": len(result.history),
        "rewards": [float(r) for r in result.rewards()],
        "entropies": [float(e) for e in result.entropies()],
        "final_architecture": {
            name: _scalar(value) for name, value in result.final_architecture.items()
        },
        "final_architecture_indices": [
            int(i) for i in space.indices_of(result.final_architecture)
        ],
        "batches_used": int(result.batches_used),
        "cache_hits": int(stats.cache_hits) if stats is not None else 0,
        "cache_misses": int(stats.cache_misses) if stats is not None else 0,
    }
    digest = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return {**body, "fingerprint": digest}


def one_shot_payload(spec: JobSpec, backend: Optional[str] = None) -> Dict[str, Any]:
    """The payload an uninterrupted one-shot run of ``spec`` produces.

    The reference for bit-identity checks: a service job — checkpointed,
    possibly killed and resumed, possibly pooled over shared workers —
    must fingerprint-match this.
    """
    space, factory = dlrm_search_builder(
        spec.steps, spec.seed, spec.cache, backend=backend
    )
    return result_payload(space, factory().search())


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_job(
    record: Any,
    run_dir: pathlib.Path,
    should_stop: Optional[Callable[[], bool]] = None,
    on_step: Optional[Callable[[int], None]] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    sleep_fn: Callable[[float], None] = time.sleep,
) -> Dict[str, Any]:
    """Run one job to completion (or a graceful stop) in ``run_dir``.

    Resumes from the job's newest checkpoint when one exists — the
    scheduler calls this identically for fresh, recovered, and drained
    jobs.  Raises :class:`~repro.runtime.errors.SearchInterrupted` when
    ``should_stop`` fires (final checkpoint already written), and
    returns the fingerprinted results payload (also written atomically
    to ``results.json``) on completion.
    """
    from ..runtime import CheckpointStore, run_with_checkpoints
    from ..telemetry import Telemetry

    spec = JobSpec.from_dict(record.spec)
    run_dir = pathlib.Path(run_dir)
    telemetry = Telemetry(run_dir / TELEMETRY_DIRNAME)
    try:
        space, factory = dlrm_search_builder(
            spec.steps,
            spec.seed,
            spec.cache,
            telemetry=telemetry,
            backend=backend,
            workers=workers,
        )
        search = factory().search_algorithm
        store = CheckpointStore(run_dir / CHECKPOINTS_DIRNAME, telemetry=telemetry)

        def step_cb(step: int) -> None:
            if spec.step_sleep_s:
                sleep_fn(spec.step_sleep_s)
            if on_step is not None:
                on_step(step)

        run = run_with_checkpoints(
            search,
            store=store,
            checkpoint_every=spec.checkpoint_every,
            resume=True,
            on_step=step_cb,
            should_stop=should_stop,
        )
        payload = result_payload(space, run.result)
        atomic_write_json(run_dir / RESULTS_NAME, payload, indent=2, sort_keys=True)
        return payload
    finally:
        telemetry.close()


def load_results(run_dir: pathlib.Path) -> Optional[Dict[str, Any]]:
    """The job's ``results.json`` payload, or ``None`` if not written."""
    path = pathlib.Path(run_dir) / RESULTS_NAME
    if not path.exists():
        return None
    return json.loads(path.read_text())
