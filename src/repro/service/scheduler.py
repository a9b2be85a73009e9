"""Multiplexing scheduler: N concurrent searches, a process each.

The scheduler owns the daemon's compute: it claims queued jobs FIFO,
gives each a thread, and caps concurrency globally (``max_concurrent``)
and per tenant (``tenant_max_running``).  A job's thread only relays:
the job runs serially under the checkpointed step loop in a process
forked for it (:func:`~repro.service.jobs.run_job_in_process`), so
concurrent searches use a core each instead of taking turns on one
interpreter.

Admission control happens at submit time, before anything touches the
spool: a draining daemon rejects with
:class:`~repro.service.protocol.AdmissionClosedError`, an over-quota
tenant (or a full global queue) with
:class:`~repro.service.protocol.QuotaExceededError`, and a malformed
spec with :class:`~repro.service.protocol.JobSpecError` — all typed,
all surfaced to the client as stable error codes.

Cancellation and draining reuse the runtime's graceful-stop contract:
the job's ``should_stop`` turns true, the in-flight step finishes, a
final checkpoint lands, and :class:`SearchInterrupted` routes the job
to ``cancelled`` (a cancel) or back to ``queued`` (a drain — the next
daemon resumes it bit-identically from that checkpoint).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..runtime.errors import SearchInterrupted
from .jobs import JobSpec, run_job_in_process
from .protocol import AdmissionClosedError, JobStateError, QuotaExceededError
from .queue import TERMINAL_STATES, JobQueue, JobRecord


@dataclass(frozen=True)
class SchedulerConfig:
    """Concurrency and admission-control policy."""

    #: searches running simultaneously, each in a process of its own
    max_concurrent: int = 2
    #: queued jobs across all tenants before submissions bounce
    max_queue_depth: int = 64
    #: running jobs one tenant may hold at once
    tenant_max_running: int = 2
    #: queued jobs one tenant may hold at once
    tenant_max_queued: int = 8
    #: dispatcher wake-up cadence (also bounds drain latency)
    poll_interval_s: float = 0.02

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.tenant_max_running < 1 or self.tenant_max_queued < 1:
            raise ValueError("per-tenant quotas must be >= 1")


class _JobHandle:
    """Scheduler-side state of one running job thread."""

    def __init__(self, record: JobRecord):
        self.record = record
        self.cancel = threading.Event()
        self.thread: Optional[threading.Thread] = None


class JobScheduler:
    """Drives the queue: admission, dispatch, cancel, drain.

    ``runner`` is injectable for tests; the default is
    :func:`repro.service.jobs.run_job_in_process`.  ``telemetry`` (the
    *daemon's* handle, distinct from each job's private stream) receives
    ``service.*`` counters and gauges.
    """

    def __init__(
        self,
        queue: JobQueue,
        config: Optional[SchedulerConfig] = None,
        telemetry: Optional[Any] = None,
        runner: Callable[..., Dict[str, Any]] = run_job_in_process,
    ):
        self.queue = queue
        self.config = config if config is not None else SchedulerConfig()
        self.telemetry = telemetry
        self._runner = runner
        self._lock = threading.RLock()
        self._handles: Dict[str, _JobHandle] = {}
        self._wake = threading.Event()
        self._drain = threading.Event()
        self._stopped = threading.Event()
        self._dispatcher: Optional[threading.Thread] = None

    # -- telemetry helpers ---------------------------------------------
    def _count(self, name: str, n: int = 1, **labels: Any) -> None:
        if self.telemetry is not None:
            self.telemetry.counter(name).inc(n, **labels)

    def _event(self, kind: str, **fields: Any) -> None:
        if self.telemetry is not None:
            self.telemetry.event(kind, **fields)

    def _refresh_gauges(self) -> None:
        if self.telemetry is None:
            return
        counts = self.queue.counts()
        self.telemetry.gauge("service.queued").set(counts["queued"])
        self.telemetry.gauge("service.running").set(counts["running"])

    # -- lifecycle ------------------------------------------------------
    def start(self) -> List[JobRecord]:
        """Recover crashed-over jobs and start the dispatcher.

        Returns the jobs that were found ``running`` in the spool (a
        previous daemon died under them) and are now re-queued to
        resume from their checkpoints.
        """
        recovered = self.queue.recover_running()
        for record in recovered:
            self._count("service.recovered")
            self._event(
                "service.job_recovered",
                job_id=record.job_id,
                tenant=record.tenant,
                progress=record.progress,
                recoveries=record.recoveries,
            )
        self._refresh_gauges()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch", daemon=True
        )
        self._dispatcher.start()
        return recovered

    @property
    def draining(self) -> bool:
        return self._drain.is_set()

    # -- admission ------------------------------------------------------
    def submit(self, tenant: str, spec: Dict[str, Any]) -> JobRecord:
        if self._drain.is_set() or self._stopped.is_set():
            self._count("service.rejected", reason="admission_closed")
            raise AdmissionClosedError(
                "daemon is draining and accepts no new submissions"
            )
        validated = JobSpec.from_dict(spec)  # raises JobSpecError
        with self._lock:
            counts = self.queue.counts()
            if counts["queued"] >= self.config.max_queue_depth:
                self._count("service.rejected", reason="queue_full")
                raise QuotaExceededError(
                    f"global queue is full "
                    f"({counts['queued']}/{self.config.max_queue_depth} queued)"
                )
            tenant_counts = self.queue.counts(tenant)
            if tenant_counts["queued"] >= self.config.tenant_max_queued:
                self._count("service.rejected", reason="tenant_queued")
                raise QuotaExceededError(
                    f"tenant {tenant!r} is at its queued-job quota "
                    f"({tenant_counts['queued']}/{self.config.tenant_max_queued})"
                )
            record = self.queue.submit(tenant, validated.to_dict())
        self._count("service.submitted")
        self._event(
            "service.job_submitted",
            job_id=record.job_id,
            tenant=tenant,
            steps=validated.steps,
        )
        self._refresh_gauges()
        self._wake.set()
        return record

    # -- dispatch -------------------------------------------------------
    def _tenant_running(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        with self._lock:
            for handle in self._handles.values():
                counts[handle.record.tenant] = counts.get(handle.record.tenant, 0) + 1
        return counts

    def _dispatch_loop(self) -> None:
        while not self._stopped.is_set():
            self._launch_ready()
            self._wake.wait(self.config.poll_interval_s)
            self._wake.clear()

    def _launch_ready(self) -> None:
        while True:
            with self._lock:
                if self._drain.is_set() or len(self._handles) >= self.config.max_concurrent:
                    return
                running = self._tenant_running()
                record = self.queue.claim_next(
                    eligible=lambda r: running.get(r.tenant, 0)
                    < self.config.tenant_max_running
                )
                if record is None:
                    return
                handle = _JobHandle(record)
                self._handles[record.job_id] = handle
                thread = threading.Thread(
                    target=self._run_one,
                    args=(record, handle),
                    name=f"repro-job-{record.job_id}",
                    daemon=True,
                )
                handle.thread = thread
                # started before the lock is released, so ``drain`` never
                # sees a registered job whose thread it cannot join
                self._count("service.started")
                self._event(
                    "service.job_started",
                    job_id=record.job_id,
                    tenant=record.tenant,
                    attempt=record.attempts,
                )
                self._refresh_gauges()
                thread.start()

    def _run_one(self, record: JobRecord, handle: _JobHandle) -> None:
        job_id = record.job_id

        def should_stop() -> bool:
            return handle.cancel.is_set() or self._drain.is_set()

        try:
            spec = JobSpec.from_dict(record.spec)

            def on_step(step: int) -> None:
                # Progress is absolute (resumed jobs report the true step
                # index).  Every step updates it in memory, where
                # ``status`` reads it; it is written through when the
                # snapshot it describes is — recovery resumes from the
                # snapshot and never reads this value.
                done = step + 1
                self.queue.update(
                    job_id,
                    durable=done % spec.checkpoint_every == 0 and done < spec.steps,
                    progress=done,
                )

            self._runner(
                record,
                self.queue.run_dir(job_id),
                should_stop=should_stop,
                on_step=on_step,
            )
        except SearchInterrupted as stop:
            if handle.cancel.is_set():
                final = self.queue.transition(job_id, "cancelled", progress=stop.step)
                self._count("service.finished", state="cancelled")
            else:
                # Drain: the job pauses at its checkpoint and returns to
                # the queue; the next daemon resumes it bit-identically.
                final = self.queue.transition(job_id, "queued", progress=stop.step)
                self._count("service.drained_jobs")
            self._event(
                "service.job_stopped",
                job_id=job_id,
                state=final.state,
                step=stop.step,
            )
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            self.queue.transition(
                job_id, "failed", error=f"{type(error).__name__}: {error}"
            )
            self._count("service.finished", state="failed")
            self._event("service.job_failed", job_id=job_id, error=str(error))
        else:
            final = self.queue.transition(job_id, "done", progress=spec.steps)
            self._count("service.finished", state="done")
            self._event(
                "service.job_done", job_id=job_id, attempts=final.attempts
            )
        finally:
            with self._lock:
                self._handles.pop(job_id, None)
            self._refresh_gauges()
            self._wake.set()

    # -- control --------------------------------------------------------
    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: queued -> ``cancelled`` now; running -> at its
        next step boundary (final checkpoint written first)."""
        record = self.queue.get(job_id)
        if record.state == "queued":
            final = self.queue.transition(job_id, "cancelled")
            self._count("service.finished", state="cancelled")
            self._event("service.job_cancelled", job_id=job_id, was="queued")
            self._refresh_gauges()
            return final
        if record.state == "running":
            with self._lock:
                handle = self._handles.get(job_id)
            if handle is not None:
                handle.cancel.set()
            self._event("service.job_cancel_requested", job_id=job_id)
            return self.queue.get(job_id)
        raise JobStateError(f"{job_id} is already {record.state}")

    def drain(self, timeout: Optional[float] = None) -> List[str]:
        """Stop admitting and launching; park running jobs at their next
        step boundary (back to ``queued``); wait for their threads.

        Returns the ids of jobs that were interrupted.  Idempotent.
        """
        # set under the lock: a job that sees the drain is parked for it
        # only after the jobs are read here, so none is left out
        with self._lock:
            self._drain.set()
            interrupted = sorted(self._handles)
            threads = [h.thread for h in self._handles.values() if h.thread]
        self._wake.set()
        for thread in threads:
            thread.join(timeout)
        self._stopped.set()
        self._wake.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout)
        self._event("service.drained", interrupted=interrupted)
        self._refresh_gauges()
        return interrupted

    def stats(self) -> Dict[str, Any]:
        """Live counts for the ``ping`` verb and the drain summary."""
        counts = self.queue.counts()
        return {
            "queued": counts["queued"],
            "running": counts["running"],
            "done": counts["done"],
            "failed": counts["failed"],
            "cancelled": counts["cancelled"],
            "draining": self.draining,
            "max_concurrent": self.config.max_concurrent,
        }


__all__ = [
    "JobScheduler",
    "SchedulerConfig",
    "TERMINAL_STATES",
]
