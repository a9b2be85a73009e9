"""Job specs and the one executor: what a queue entry, and every search verb, runs.

A run is a validated :class:`JobSpec` — the dict a client submits, or
what a CLI search verb builds from its flags.  Its ``kind`` names one
of three runs of the quickstart DLRM workload, each from its builder:

* ``dlrm_quickstart`` (the default) — the single-step search,
  :func:`dlrm_search_builder`;
* ``elastic_train`` — once-for-all elastic training,
  :func:`elastic_training_builder`, whose artifact goes where the
  caller says (a daemon job's: its run directory);
* ``specialize`` — a policy-only search against a trained ``artifact``
  for one hardware ``platform``, :func:`specialization_builder`.

:func:`run_spec` is the one executor: it maps the kind to its builder
and drives the engine under
:func:`~repro.runtime.supervisor.run_with_checkpoints`.  :func:`run_job`
runs a queued job through it inside the job's private run directory,
and :func:`run_job_in_process` (the daemon's runner) runs ``run_job`` in
a process forked for the job::

    <spool>/runs/<job_id>/checkpoints/   resumable snapshots
    <spool>/runs/<job_id>/telemetry/     per-job metrics + event stream
    <spool>/runs/<job_id>/artifact/      an elastic_train job's artifact
    <spool>/runs/<job_id>/results.json   final payload, atomic write

Results carry a canonical SHA-256 ``fingerprint`` over the
numerics-bearing fields (rewards, entropies, final architecture,
cache counters).  Because checkpointed, resumed, and backend-pooled
runs are all bit-identical to a one-shot serial run, a service job's
fingerprint must equal :func:`one_shot_payload` of the same spec — the
property the durability test and the service benchmark assert.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import pathlib
import signal
import socket
import threading
import time
import weakref
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Optional

from ..runtime.atomic import atomic_write_json
from ..runtime.errors import SearchInterrupted
from .protocol import JobSpecError

RESULTS_NAME = "results.json"
CHECKPOINTS_DIRNAME = "checkpoints"
TELEMETRY_DIRNAME = "telemetry"
ARTIFACT_DIRNAME = "artifact"

#: Result payload layout version.
RESULTS_SCHEMA = 1

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
    from ..core import relu_reward
    from ..core.elastic import SpecializationSearch
    from ..data import SingleStepPipeline
    from ..runtime import restore_elastic_supernet

    space = _quickstart_space()
    _, performance_fn, objectives = platform_performance_fn(space, platform_name)

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

    Runs one ``specialize`` :class:`JobSpec` per platform (all against
    the same frozen weights) through :func:`run_spec`, and returns the
    marked-Pareto :class:`~repro.analysis.fleet.FleetEntry` rows:
    per-device final architecture, quality/reward, simulated timing on
    that device, its scaling bottleneck, and data-parallel cluster
    throughput.  Every spec is built, so every platform validated,
    before the first search runs.
    """
    from dataclasses import replace

    from ..analysis import FleetEntry, mark_pareto
    from ..hardware import ClusterModel, PLATFORMS, bottleneck, simulate
    from ..models.dlrm import build_graph

    specs = [
        JobSpec(
            kind="specialize", steps=steps, seed=seed, cache=use_cache,
            artifact=str(artifact_dir), platform=name,
        )
        for name in (PLATFORMS if platforms is None else platforms)
    ]
    entries = []
    for spec in specs:
        space, _, result = run_spec(spec, backend=backend, workers=workers)
        harness, _, _ = platform_performance_fn(space, spec.platform)
        hw = harness.serve_hw
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
def _quickstart_job(spec, *run):
    space, factory = dlrm_search_builder(*run)
    return space, lambda: factory().search_algorithm


def _elastic_job(spec, *run):
    space, _, factory = elastic_training_builder(*run)
    return space, factory


#: job kind -> its builder, as ``(spec, *run) -> (space, factory)``, the
#: factory building a fresh engine; ``run`` is ``(steps, seed, cache,
#: telemetry, backend, workers)``, every builder's leading arguments
_BUILDERS = {
    "dlrm_quickstart": _quickstart_job,
    "elastic_train": _elastic_job,
    "specialize": lambda spec, *run: specialization_builder(spec.artifact, spec.platform, *run),
}
JOB_KINDS = tuple(_BUILDERS)


def _is_int(value: Any) -> bool:
    """An ``int`` that is not a ``bool`` (JSON ``true`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class JobSpec:
    """Validated parameters of one run: what a client submits, and what
    each CLI search verb builds from its flags."""

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
    #: ``specialize`` only, and required there: the trained elastic
    #: artifact's directory and the hardware target to specialize for
    artifact: Optional[str] = None
    platform: Optional[str] = None

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
        sleep = self.step_sleep_s  # not a bool or a string; NaN compares false
        if not (_is_int(sleep) or isinstance(sleep, float)) or not 0 <= sleep < math.inf:
            raise JobSpecError("spec.step_sleep_s must be a finite number >= 0")
        if self.kind == "specialize":
            self._check_target()
        elif self.artifact is not None or self.platform is not None:
            raise JobSpecError(
                f"spec.artifact and spec.platform are for kind 'specialize', "
                f"not {self.kind!r}"
            )

    def _check_target(self) -> None:
        """A ``specialize`` spec names a known platform and a loadable artifact."""
        from ..hardware import platform
        from ..runtime import CheckpointError, load_elastic_artifact

        if not isinstance(self.artifact, str) or not isinstance(self.platform, str):
            raise JobSpecError(
                "a specialize job needs spec.artifact and spec.platform (strings)"
            )
        try:
            platform(self.platform)
        except ValueError as error:
            raise JobSpecError(f"spec.platform: {error}") from None
        try:
            load_elastic_artifact(self.artifact)
        except (CheckpointError, LookupError, TypeError, ValueError) as error:
            raise JobSpecError(f"spec.artifact: {error}") from None

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
        """The spec as JSON; unset ``specialize`` fields are left out."""
        return {name: value for name, value in asdict(self).items() if value is not None}


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
    possibly killed and resumed — must fingerprint-match this.
    """
    space, _, result = run_spec(spec, backend=backend)
    return result_payload(space, result)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def build_job(spec: JobSpec, telemetry=None, backend=None, workers=None):
    """``(space, fresh-engine factory)`` of ``spec``'s kind — what
    :func:`run_spec` runs once and a supervisor rebuilds on a restart."""
    run = (spec.steps, spec.seed, spec.cache, telemetry, backend, workers)
    return _BUILDERS[spec.kind](spec, *run)


def run_spec(
    spec: JobSpec,
    store: Any = None,
    telemetry: Any = None,
    *,
    resume: bool = True,
    should_stop: Optional[Callable[[], bool]] = None,
    on_step: Optional[Callable[[int], None]] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    artifact_dir: Any = None,
):
    """Run ``spec`` to completion (or a graceful stop): the one executor.

    Builds the engine of ``spec.kind`` and drives it under
    :func:`~repro.runtime.supervisor.run_with_checkpoints`, snapshotting
    into ``store`` (none: one shot); an ``elastic_train`` run then saves
    its trained supernet as an artifact in ``artifact_dir``, when one is
    given (other kinds ignore it).  Returns ``(space, engine, result)``.
    """
    from ..runtime import run_with_checkpoints, save_elastic_artifact

    space, factory = build_job(spec, telemetry, backend, workers)
    engine = factory()
    result = run_with_checkpoints(
        engine, store, checkpoint_every=spec.checkpoint_every, resume=resume,
        on_step=on_step, should_stop=should_stop,
    ).result
    if spec.kind == "elastic_train" and artifact_dir is not None:
        save_elastic_artifact(
            artifact_dir, engine.supernet, space, engine.schedule,
            trained_steps=spec.steps, seed=spec.seed,
            metadata={"workload": "dlrm_quickstart"},
        )
    return space, engine, result


def run_job(
    record: Any,
    run_dir: pathlib.Path,
    should_stop: Optional[Callable[[], bool]] = None,
    on_step: Optional[Callable[[int], None]] = None,
    sleep_fn: Callable[[float], None] = time.sleep,
) -> Dict[str, Any]:
    """Run one job to completion (or a graceful stop) in ``run_dir``.

    Resumes from the job's newest checkpoint when one exists — the
    scheduler calls this identically for fresh, recovered, and drained
    jobs.  A job computes serially, whatever ``$REPRO_BACKEND`` says.
    Raises :class:`~repro.runtime.errors.SearchInterrupted` when
    ``should_stop`` fires (final checkpoint already written), and
    returns the fingerprinted results payload (also written atomically
    to ``results.json``) on completion.
    """
    from ..runtime import CheckpointStore
    from ..telemetry import Telemetry

    spec = JobSpec.from_dict(record.spec)
    run_dir = pathlib.Path(run_dir)

    def step_cb(step: int) -> None:
        if spec.step_sleep_s:
            sleep_fn(spec.step_sleep_s)
        if on_step is not None:
            on_step(step)

    telemetry = Telemetry(run_dir / TELEMETRY_DIRNAME)
    try:
        store = CheckpointStore(run_dir / CHECKPOINTS_DIRNAME, telemetry=telemetry)
        space, _, result = run_spec(
            spec, store, telemetry, on_step=step_cb, should_stop=should_stop,
            backend="serial", artifact_dir=run_dir / ARTIFACT_DIRNAME,
        )
        payload = result_payload(space, result)
        atomic_write_json(run_dir / RESULTS_NAME, payload, indent=2, sort_keys=True)
        return payload
    finally:
        telemetry.close()


# ----------------------------------------------------------------------
# A job in its own process
# ----------------------------------------------------------------------
#: Every daemon-side socket of this process: the listener, the client
#: connections and each job's end of its link; and the spool lock.  A
#: job process inherits them all under ``fork`` and closes each first.
DAEMON_SOCKETS: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()

#: Held while a daemon-side socket is made and registered, and across a
#: job's fork: no job process inherits a socket it does not know to close.
SOCKETS_LOCK = threading.Lock()

#: How often a relaying job thread asks ``should_stop``.
RELAY_POLL_S = 0.05


class JobProcessError(RuntimeError):
    """A job's process failed, or died before it said how its run ended."""


def _send(link: socket.socket, message: Dict[str, Any]) -> None:
    link.sendall(json.dumps(message).encode("utf-8") + b"\n")


def _follow_daemon(link: socket.socket, stop: threading.Event) -> None:
    """A job process's reader: the daemon's ``stop`` sets ``stop``.  EOF
    means the daemon is gone, and the process ends at once, before it
    writes more into a run directory a restarted daemon will resume."""
    try:
        for line in link.makefile("rb"):
            if json.loads(line)["type"] == "stop":
                stop.set()
    finally:
        os._exit(1)


def _job_process_main(link: socket.socket, record: Any, run_dir: Any, sleep_fn: Any) -> None:
    """Body of a job's process: :func:`run_job`, reported over ``link``."""
    for sock in list(DAEMON_SOCKETS):
        sock.close()
    for sig in (signal.SIGINT, signal.SIGTERM):  # a stop comes over the link
        signal.signal(sig, signal.SIG_IGN)
    stop = threading.Event()
    threading.Thread(
        target=_follow_daemon, args=(link, stop), name="repro-job-link", daemon=True
    ).start()
    completed = []

    def should_stop() -> bool:
        # Polled after the step's snapshot, so the daemon's durable
        # progress write for it follows the snapshot it describes.
        _send(link, {"type": "step", "step": completed[-1]})
        return stop.is_set()

    try:
        payload = run_job(record, run_dir, should_stop, completed.append, sleep_fn)
    except SearchInterrupted as stopped:
        message = {
            "type": "stopped",
            "step": stopped.step,
            "checkpoint_written": stopped.checkpoint_written,
        }
    except Exception as error:  # noqa: BLE001 - reported, raised daemon-side
        message = {"type": "failed", "error": type(error).__name__, "message": str(error)}
    else:
        message = {"type": "done", "payload": payload}
    _send(link, message)


def _relay(
    link: socket.socket,
    should_stop: Optional[Callable[[], bool]],
    on_step: Optional[Callable[[int], None]],
) -> Optional[Dict[str, Any]]:
    """Relay a job process's ``step`` messages to ``on_step`` and a true
    ``should_stop`` to it as ``stop``; its last message, or ``None`` when
    it closed the link without one."""
    link.settimeout(RELAY_POLL_S)
    stopping = False
    pending = b""
    while True:
        if not stopping and should_stop is not None and should_stop():
            stopping = True
            try:
                _send(link, {"type": "stop"})
            except OSError:
                pass  # gone already: the read below sees it
        try:
            chunk = link.recv(65536)
        except socket.timeout:
            continue
        except OSError:
            chunk = b""
        if not chunk:
            return None
        *lines, pending = (pending + chunk).split(b"\n")
        for line in lines:
            message = json.loads(line)
            if message["type"] != "step":
                return message
            if on_step is not None:
                on_step(message["step"])


def run_job_in_process(
    record: Any,
    run_dir: pathlib.Path,
    should_stop: Optional[Callable[[], bool]] = None,
    on_step: Optional[Callable[[int], None]] = None,
    sleep_fn: Callable[[float], None] = time.sleep,
) -> Dict[str, Any]:
    """:func:`run_job` in a process forked for the job; the caller relays.

    Searches are GIL-bound numpy, so two jobs in one interpreter share
    one core; two processes use two.

    The link is a socketpair carrying JSON lines: the job sends ``step``
    after each completed step (and its snapshot), then ``done``,
    ``stopped`` or ``failed``; the daemon sends ``stop`` once
    ``should_stop`` is true.  Returns and raises what ``run_job`` would,
    and :class:`JobProcessError` for a failure in the job's process
    (naming the exception it raised there) or a process that died
    without a last message (naming its signal).  The process is joined
    before this returns.
    """
    from ..core.engine.backends import process_start_method

    with SOCKETS_LOCK:
        link, job_end = socket.socketpair()
        DAEMON_SOCKETS.add(link)
        process = multiprocessing.get_context(process_start_method()).Process(
            target=_job_process_main,
            args=(job_end, record, run_dir, sleep_fn),
            name=f"repro-job-{record.job_id}",
        )
        try:
            process.start()
        except BaseException:
            link.close()
            raise
        finally:
            job_end.close()
    message = None
    try:
        message = _relay(link, should_stop, on_step)
    finally:
        if message is None:
            process.kill()  # a no-op on one that died already
        process.join()
        link.close()
    if message is None:
        code = process.exitcode
        cause = f"signal {signal.Signals(-code).name}" if code < 0 else f"exit code {code}"
        raise JobProcessError(f"job process {process.pid} ended by {cause} mid-run")
    if message["type"] == "stopped":
        raise SearchInterrupted(message["step"], message["checkpoint_written"])
    if message["type"] == "failed":
        raise JobProcessError(f"{message['error']}: {message['message']}")
    return message["payload"]


def load_results(run_dir: pathlib.Path) -> Optional[Dict[str, Any]]:
    """The job's ``results.json`` payload, or ``None`` if not written."""
    path = pathlib.Path(run_dir) / RESULTS_NAME
    if not path.exists():
        return None
    return json.loads(path.read_text())
