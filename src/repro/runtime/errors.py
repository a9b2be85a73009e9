"""Crash classification: which failures are worth retrying?

The supervisor and the hardware testbed both used to retry on *any*
``Exception``.  That policy turns a programming error — a ``TypeError``
from a bad config, a ``KeyError`` from a malformed metrics mapping —
into ``max_restarts`` identical crashes and a misleading
"restart budget exhausted" failure, burning the whole backoff schedule
on an error that can never succeed.  This module centralizes the
classification both retry loops use:

* **non-retryable**: deterministic programming/configuration errors
  (:data:`NON_RETRYABLE_TYPES`) — re-raised immediately so the operator
  sees the real traceback on the first attempt;
* **retryable**: everything else, notably ``RuntimeError`` (the
  conventional type for transient environment failures in this repo)
  and every fault the injection harness raises
  (:class:`~repro.runtime.faults.InjectedFault` and subclasses), which
  exist precisely to exercise the retry machinery.

``MemoryError``/``OSError`` style resource exhaustion stays retryable:
on a real fleet those are preemptions and flaky filesystems, the
bread-and-butter restart case.
"""

from __future__ import annotations

from typing import Tuple, Type

from .faults import InjectedFault

#: Deterministic programming/configuration errors: retrying re-executes
#: the same broken code on the same inputs and fails identically.
NON_RETRYABLE_TYPES: Tuple[Type[BaseException], ...] = (
    TypeError,
    KeyError,
    ValueError,
    AttributeError,
    IndexError,
    NotImplementedError,
)


class SearchInterrupted(Exception):
    """A run stopped cooperatively at a step boundary, not a crash.

    Raised by :func:`~repro.runtime.supervisor.run_with_checkpoints`
    when its ``should_stop`` callback turns true: the in-flight step is
    finished, a final checkpoint is written (when a store is attached),
    and *then* this is raised.  Deliberately not a ``RuntimeError`` —
    the supervisor re-raises it untouched instead of burning a restart,
    and the service scheduler uses it to distinguish a drained or
    cancelled job (resumable from its checkpoint) from a failed one.
    """

    def __init__(self, step: int, checkpoint_written: bool):
        self.step = int(step)
        self.checkpoint_written = bool(checkpoint_written)
        detail = (
            f"search stopped after step {self.step}"
            + (
                "; final checkpoint written, rerun with resume to continue"
                if self.checkpoint_written
                else " (no checkpoint store attached)"
            )
        )
        super().__init__(detail)


class WorkerCrashError(RuntimeError):
    """A backend lost workers beyond its resubmission budget.

    Raised by the remote backends
    (:class:`~repro.core.engine.distributed.ProcessPoolBackend`,
    :class:`~repro.core.engine.distributed.DistributedBackend`) when a
    task burned its per-task retries (``max_task_retries``) across lost
    workers or the last connected worker vanished mid-map.
    Deliberately a ``RuntimeError``
    subclass: losing workers is a transient infrastructure failure (OOM
    kills, preemptions, network partitions), so the supervisor's restart
    loop classifies it retryable and resumes the search from its last
    snapshot rather than giving up.
    """


def is_retryable(error: BaseException) -> bool:
    """Whether a retry loop should attempt ``error`` again.

    Injected faults are always retryable — the fault harness models
    transient infrastructure failures even when it raises a type that
    would otherwise classify as a bug.
    """
    if isinstance(error, InjectedFault):
        return True
    return not isinstance(error, NON_RETRYABLE_TYPES)


def classify_error(error: BaseException) -> str:
    """``"retryable"`` or ``"non_retryable"``, for logs and telemetry."""
    return "retryable" if is_retryable(error) else "non_retryable"
