"""Supervised search execution: checkpoints, restarts, heartbeats.

Two layers:

* :func:`run_with_checkpoints` drives one attempt of a search step by
  step, snapshotting every ``checkpoint_every`` steps and resuming from
  the newest good snapshot when asked — the single-process equivalent of
  the paper's periodically-checkpointed controller job.
* :class:`SearchSupervisor` wraps that loop in a bounded-restart retry
  policy with exponential backoff, so a search survives injected (or
  real) crashes: each attempt rebuilds the search from a factory,
  resumes from the checkpoint store, and replays forward.  Heartbeat
  accounting tracks per-step liveness across attempts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Set

from .checkpoint import CheckpointStore, search_checkpoint_payload
from .errors import SearchInterrupted, is_retryable
from .faults import FaultInjector
from .recovery import ResumeReport, resume_search


@dataclass
class CheckpointedRun:
    """Outcome of one uninterrupted (or resumed) pass over the steps."""

    result: Any
    resume: ResumeReport
    snapshots_written: int


def run_with_checkpoints(
    search: Any,
    store: Optional[CheckpointStore] = None,
    checkpoint_every: int = 10,
    resume: bool = True,
    injector: Optional[FaultInjector] = None,
    on_step: Optional[Callable[[int], None]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> CheckpointedRun:
    """Run ``search`` to completion, snapshotting periodically.

    ``search`` must expose the stepwise protocol (``config.steps``,
    ``step(i)``, ``build_result(history)``, ``state_dict()``).  With a
    ``store``, a snapshot is written after every ``checkpoint_every``
    completed steps; with ``resume=True`` the run first restores from
    the newest good snapshot.  ``on_step`` fires after each completed
    step (heartbeats), ``injector`` hooks in scheduled faults.

    ``should_stop`` is the graceful-shutdown hook (see
    :mod:`repro.runtime.signals`): polled after every completed step,
    and when it turns true the loop writes a final off-interval
    snapshot (when a ``store`` is attached) and raises
    :class:`~repro.runtime.errors.SearchInterrupted` — never killing a
    step midway, never losing completed work.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    telemetry = getattr(search, "telemetry", None)
    if telemetry is not None and store is not None:
        store.attach_telemetry(telemetry)
    if store is not None and resume:
        next_step, history, report = resume_search(store, search)
    else:
        # A deliberate from-scratch start: run-scoped metrics must not
        # carry counts from any earlier attempt sharing this registry.
        if telemetry is not None:
            telemetry.reset_run_metrics()
        next_step, history, report = 0, [], ResumeReport()
    written = 0
    total_steps = int(search.config.steps)
    for step in range(next_step, total_steps):
        if injector is not None:
            injector.before_step(step)
        history.append(search.step(step))
        if telemetry is not None:
            # Run-scoped liveness: rolled back with the search state on
            # resume, so totals stay bit-identical across crash/resume
            # (the supervisor's raw heartbeat ints keep counting replays).
            telemetry.counter("search.heartbeats").inc()
        if on_step is not None:
            on_step(step)
        if injector is not None:
            injector.after_step(step)
        done = step + 1
        snapshotted = False
        if store is not None and done % checkpoint_every == 0 and done < total_steps:
            store.save(done, search_checkpoint_payload(search, done, history))
            written += 1
            snapshotted = True
        if should_stop is not None and done < total_steps and should_stop():
            if store is not None and not snapshotted:
                store.save(done, search_checkpoint_payload(search, done, history))
                written += 1
            if telemetry is not None:
                telemetry.event("supervisor.interrupted", step=done)
                telemetry.flush()
            raise SearchInterrupted(step=done, checkpoint_written=store is not None)
    return CheckpointedRun(
        result=search.build_result(history), resume=report, snapshots_written=written
    )


class RestartBudgetExceeded(RuntimeError):
    """The supervisor ran out of restarts; the last crash is chained."""


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry policy for :class:`SearchSupervisor`."""

    checkpoint_every: int = 10
    max_restarts: int = 5
    backoff_base_s: float = 0.1

    def backoff_for(self, restart_index: int) -> float:
        """Backoff before restart ``restart_index`` (1-based): doubling
        from ``backoff_base_s``, at most 30 s."""
        return min(self.backoff_base_s * 2.0 ** (restart_index - 1), 30.0)


@dataclass
class AttemptRecord:
    """Health log for one attempt of the supervised search."""

    attempt: int
    start_step: Optional[int]
    steps_completed: int
    outcome: str  # "completed" | "crashed"
    error: Optional[str] = None
    backoff_s: float = 0.0
    #: whether the crash was classified worth restarting for (see
    #: :mod:`repro.runtime.errors`); non-retryable crashes re-raise
    #: immediately instead of burning the restart budget
    retryable: bool = True


@dataclass
class SupervisedResult:
    """Final result plus the full restart/heartbeat history."""

    result: Any
    attempts: List[AttemptRecord] = field(default_factory=list)
    #: total steps executed across every attempt, replays included
    heartbeats: int = 0
    #: steps executed more than once because a crash rolled them back
    steps_replayed: int = 0
    #: snapshots written by the final, successful attempt
    snapshots_written: int = 0

    @property
    def restarts(self) -> int:
        return max(0, len(self.attempts) - 1)


class SearchSupervisor:
    """Drives a search to completion across crashes with bounded restarts.

    ``search_factory`` must build a *fresh* search each call — after a
    crash the old in-process state is untrusted, exactly as a real
    restarted worker begins from nothing but the checkpoint store.
    """

    def __init__(
        self,
        search_factory: Callable[[], Any],
        store: Optional[CheckpointStore],
        config: Optional[SupervisorConfig] = None,
        injector: Optional[FaultInjector] = None,
        sleep_fn: Callable[[float], None] = time.sleep,
        should_stop: Optional[Callable[[], bool]] = None,
    ):
        self._factory = search_factory
        self._store = store
        self.config = config if config is not None else SupervisorConfig()
        self._injector = injector
        self._sleep = sleep_fn
        self._should_stop = should_stop

    def run(self) -> SupervisedResult:
        attempts: List[AttemptRecord] = []
        heartbeats = 0
        steps_seen: Set[int] = set()
        replayed = 0
        attempt_index = 0
        while True:
            attempt_index += 1
            search = self._factory()
            if self._injector is not None:
                self._injector.arm(search, self._store)
            first_step: List[int] = []
            completed = 0

            def beat(step: int) -> None:
                nonlocal heartbeats, completed, replayed
                if not first_step:
                    first_step.append(step)
                heartbeats += 1
                completed += 1
                if step in steps_seen:
                    replayed += 1
                else:
                    steps_seen.add(step)

            try:
                run = run_with_checkpoints(
                    search,
                    store=self._store,
                    checkpoint_every=self.config.checkpoint_every,
                    injector=self._injector,
                    on_step=beat,
                    should_stop=self._should_stop,
                )
            except SearchInterrupted:
                # A graceful shutdown is not a crash: the final
                # checkpoint is on disk, so surface it untouched
                # instead of burning a restart replaying the run.
                raise
            except Exception as error:  # noqa: BLE001 - classified below
                retryable = is_retryable(error)
                telemetry = getattr(search, "telemetry", None)
                if telemetry is not None:
                    telemetry.counter("supervisor.crashes").inc(
                        error=type(error).__name__,
                        retryable=str(retryable).lower(),
                    )
                attempts.append(
                    AttemptRecord(
                        attempt=attempt_index,
                        start_step=first_step[0] if first_step else None,
                        steps_completed=completed,
                        outcome="crashed",
                        error=f"{type(error).__name__}: {error}",
                        retryable=retryable,
                    )
                )
                if not retryable:
                    # A deterministic bug: every restart would crash the
                    # same way, so surface the real traceback now.
                    if telemetry is not None:
                        telemetry.event(
                            "supervisor.abort",
                            attempt=attempt_index,
                            error=f"{type(error).__name__}: {error}",
                        )
                        telemetry.flush()
                    raise
                restarts_used = attempt_index - 1
                if restarts_used >= self.config.max_restarts:
                    raise RestartBudgetExceeded(
                        f"search crashed {attempt_index} times; "
                        f"restart budget of {self.config.max_restarts} exhausted"
                    ) from error
                backoff = self.config.backoff_for(restarts_used + 1)
                attempts[-1].backoff_s = backoff
                if telemetry is not None:
                    telemetry.counter("supervisor.restarts").inc()
                    telemetry.event(
                        "supervisor.restart",
                        attempt=attempt_index,
                        error=f"{type(error).__name__}: {error}",
                        backoff_s=backoff,
                    )
                if backoff > 0:
                    self._sleep(backoff)
                continue
            attempts.append(
                AttemptRecord(
                    attempt=attempt_index,
                    start_step=first_step[0] if first_step else None,
                    steps_completed=completed,
                    outcome="completed",
                )
            )
            telemetry = getattr(search, "telemetry", None)
            if telemetry is not None:
                telemetry.event(
                    "supervisor.completed",
                    attempts=attempt_index,
                    heartbeats=heartbeats,
                    steps_replayed=replayed,
                )
            return SupervisedResult(
                result=run.result,
                attempts=attempts,
                heartbeats=heartbeats,
                steps_replayed=replayed,
                snapshots_written=run.snapshots_written,
            )
