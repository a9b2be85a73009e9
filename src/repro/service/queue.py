"""Durable job queue: one atomic JSON record per job under a spool dir.

Every job the daemon accepts becomes a file —
``<spool>/jobs/job-<seq>.json`` — written exclusively through
:func:`repro.runtime.atomic.atomic_write_json`, so a SIGKILLed daemon
never leaves a torn record: restart sees either the previous state or
the new one.  The queue is therefore *the* source of truth; the
in-memory index is just a cache rebuilt by scanning the spool.

What is durable when: every state edge (submit, claim, finish, cancel,
drain, recovery) is an fsynced atomic write before the call returns.
``progress`` between edges is live in memory on every step (``status``
and ``list`` read it there) and written through only when the job's
snapshot is (:meth:`JobQueue.update` with ``durable=False`` otherwise):
recovery resumes from the checkpoint store and never reads it, so
nothing a restarted daemon does depends on a fresher value.

The dispatcher polls the queue every few milliseconds and a spool keeps
every job it ever ran, so nothing on that path may cost time in the
spool's history: the next sequence number, the per-state counts (global
and per tenant) and the seq-ordered index of queued jobs are maintained
on every edge instead of recomputed by scanning the records.

States move ``queued -> running -> done | failed | cancelled``, with
one extra durable edge for crash recovery and draining:
``running -> queued`` (:meth:`JobQueue.recover_running`, and the
scheduler when a drain stops a job at a step boundary).  A recovered
job resumes from its own checkpoint directory, so no completed step is
ever recomputed differently — the crash/resume bit-identity contract
of :mod:`repro.runtime` extends to the service layer.

Per-job isolation lives next to the records: ``<spool>/runs/<job_id>/``
holds the job's checkpoint store, its private telemetry stream
(metrics + JSONL event segments), and its final ``results.json``.
"""

from __future__ import annotations

import bisect
import json
import pathlib
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..runtime.atomic import atomic_write_json
from .protocol import JobStateError, UnknownJobError

PathLike = Union[str, pathlib.Path]

#: Every state a job record can be in.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Legal state transitions (see module docstring for the extra
#: ``running -> queued`` recovery/drain edge).
_TRANSITIONS = {
    "queued": ("running", "cancelled"),
    "running": ("done", "failed", "cancelled", "queued"),
    "done": (),
    "failed": (),
    "cancelled": (),
}

JOBS_DIRNAME = "jobs"
RUNS_DIRNAME = "runs"


def _no_jobs() -> Dict[str, int]:
    return dict.fromkeys(JOB_STATES, 0)


@dataclass
class JobRecord:
    """Durable description of one submitted search job."""

    job_id: str
    seq: int
    tenant: str
    spec: Dict[str, Any]
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: times a scheduler picked this job up (1 for an undisturbed run;
    #: +1 for every resume after a daemon death or drain)
    attempts: int = 0
    #: times the job was found ``running`` by a restarted daemon and
    #: re-queued to resume from its checkpoints
    recoveries: int = 0
    #: completed search steps, updated as the job runs
    progress: int = 0
    error: Optional[str] = None
    #: free-form audit trail of state edges: [state, at] pairs
    history: List[List[Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobRecord":
        return cls(**payload)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class JobQueue:
    """Thread-safe FIFO queue of :class:`JobRecord` persisted per-job.

    All mutation goes through methods that persist before returning;
    readers get copies of the in-memory index (never live references a
    caller could mutate behind the lock's back).
    """

    def __init__(self, spool: PathLike, clock: Callable[[], float] = time.time):
        self.spool = pathlib.Path(spool)
        self.jobs_dir = self.spool / JOBS_DIRNAME
        self.runs_dir = self.spool / RUNS_DIRNAME
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._lock = threading.RLock()
        self._records: Dict[str, JobRecord] = {}
        self._next_seq = 0
        #: jobs per state: ``None`` for the whole spool, else per tenant
        self._counts: Dict[Optional[str], Dict[str, int]] = {None: _no_jobs()}
        #: ``(seq, job_id)`` of every queued job, oldest first (a job
        #: drained or recovered back to ``queued`` keeps its place)
        self._queued: List[Tuple[int, str]] = []
        self._load()

    # -- the derived indexes --------------------------------------------
    def _reindex(self, record: JobRecord, was: Optional[str]) -> None:
        """Account for ``record`` having moved from state ``was``
        (``None``: it is new) to ``record.state``."""
        tenant = self._counts.setdefault(record.tenant, _no_jobs())
        for counts in (self._counts[None], tenant):
            if was is not None:
                counts[was] -= 1
            counts[record.state] += 1
        key = (record.seq, record.job_id)
        if was == "queued":
            self._queued.remove(key)  # bounded by the admission quota
        if record.state == "queued":
            bisect.insort(self._queued, key)

    # -- persistence ----------------------------------------------------
    def _load(self) -> None:
        for path in sorted(self.jobs_dir.glob("job-*.json")):
            try:
                record = JobRecord.from_dict(json.loads(path.read_text()))
            except (json.JSONDecodeError, TypeError, KeyError):
                # Atomic writes make this unreachable for our own
                # records; a foreign or hand-edited file must not take
                # the whole spool down.
                continue
            self._records[record.job_id] = record
            self._next_seq = max(self._next_seq, record.seq + 1)
            self._reindex(record, None)

    def _persist(self, record: JobRecord) -> None:
        atomic_write_json(
            self.jobs_dir / f"{record.job_id}.json",
            record.to_dict(),
            indent=2,
            sort_keys=True,
        )

    def run_dir(self, job_id: str) -> pathlib.Path:
        """The job's private working directory (checkpoints, telemetry,
        results); created on first use."""
        path = self.runs_dir / job_id
        path.mkdir(parents=True, exist_ok=True)
        return path

    # -- submission and lookup -----------------------------------------
    def submit(self, tenant: str, spec: Dict[str, Any]) -> JobRecord:
        if not tenant or not isinstance(tenant, str):
            raise ValueError("tenant must be a non-empty string")
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            record = JobRecord(
                job_id=f"job-{seq:06d}",
                seq=seq,
                tenant=tenant,
                spec=dict(spec),
                state="queued",
                submitted_at=self._clock(),
            )
            record.history.append(["queued", record.submitted_at])
            self._records[record.job_id] = record
            self._reindex(record, None)
            self._persist(record)
            return JobRecord.from_dict(record.to_dict())

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise UnknownJobError(f"no such job: {job_id!r}")
            return JobRecord.from_dict(record.to_dict())

    def list(
        self,
        tenant: Optional[str] = None,
        states: Optional[Iterable[str]] = None,
    ) -> List[JobRecord]:
        wanted = tuple(states) if states is not None else None
        with self._lock:
            records = [
                JobRecord.from_dict(r.to_dict())
                for r in sorted(self._records.values(), key=lambda r: r.seq)
                if (tenant is None or r.tenant == tenant)
                and (wanted is None or r.state in wanted)
            ]
        return records

    def counts(self, tenant: Optional[str] = None) -> Dict[str, int]:
        """Jobs per state, optionally restricted to one tenant."""
        with self._lock:
            return dict(self._counts.get(tenant) or _no_jobs())

    # -- state machine --------------------------------------------------
    def transition(self, job_id: str, state: str, **changes: Any) -> JobRecord:
        """Move a job to ``state`` (validated) and persist atomically.

        Extra keyword ``changes`` patch record fields in the same
        durable write (``error=...``, ``progress=...``).
        """
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise UnknownJobError(f"no such job: {job_id!r}")
            if state not in _TRANSITIONS[record.state]:
                raise JobStateError(
                    f"{job_id} is {record.state}; cannot move to {state}"
                )
            now = self._clock()
            was, record.state = record.state, state
            self._reindex(record, was)
            record.history.append([state, now])
            if state == "running":
                record.started_at = now
                record.attempts += 1
            elif state in TERMINAL_STATES:
                record.finished_at = now
            for key, value in changes.items():
                if not hasattr(record, key):
                    raise AttributeError(f"JobRecord has no field {key!r}")
                setattr(record, key, value)
            self._persist(record)
            return JobRecord.from_dict(record.to_dict())

    def update(self, job_id: str, durable: bool = True, **changes: Any) -> JobRecord:
        """Patch record fields without a state change.

        Readers see the patch at once; it reaches the spool now when
        ``durable``, else with the record's next durable write.
        """
        if changes.keys() & {"state", "tenant", "seq"}:
            raise ValueError("the indexed fields change only through transition()")
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise UnknownJobError(f"no such job: {job_id!r}")
            for key, value in changes.items():
                if not hasattr(record, key):
                    raise AttributeError(f"JobRecord has no field {key!r}")
                setattr(record, key, value)
            if durable:
                self._persist(record)
            return JobRecord.from_dict(record.to_dict())

    def claim_next(
        self, eligible: Optional[Callable[[JobRecord], bool]] = None
    ) -> Optional[JobRecord]:
        """Claim the oldest queued job passing ``eligible`` (FIFO).

        The claim itself is the durable ``queued -> running`` edge: a
        daemon killed right after this call finds the job ``running``
        on restart and re-queues it via :meth:`recover_running`.
        """
        with self._lock:
            for _, job_id in self._queued:
                if eligible is None or eligible(self._records[job_id]):
                    return self.transition(job_id, "running")
        return None

    def recover_running(self) -> List[JobRecord]:
        """Re-queue every job a dead daemon left ``running``.

        Called once at daemon start, before the scheduler launches
        anything.  Each recovered job keeps its checkpoints and resumes
        from its newest snapshot when next claimed.
        """
        recovered: List[JobRecord] = []
        with self._lock:
            for record in sorted(self._records.values(), key=lambda r: r.seq):
                if record.state == "running":
                    recovered.append(
                        self.transition(
                            record.job_id,
                            "queued",
                            recoveries=record.recoveries + 1,
                        )
                    )
        return recovered
