"""Crash recovery: resume from the newest verifiable snapshot.

Recovery walks the manifest newest-to-oldest, checksum-verifying each
snapshot and falling back when one is corrupt (a preempted writer, a
bad disk, an injected fault from :mod:`repro.runtime.faults`).  Because
a snapshot captures every rng bit-generator state the search consumes,
a run restored from snapshot ``k`` replays steps ``k..`` with the same
draws an uninterrupted run would have made — crash-resumed searches are
bit-identical, which the crash/resume property tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from .checkpoint import (
    CheckpointCorruptError,
    CheckpointStore,
    SnapshotInfo,
    restore_search,
)


@dataclass
class LoadedSnapshot:
    """A successfully verified snapshot plus what recovery skipped."""

    info: SnapshotInfo
    state: Any
    #: snapshot ids that failed verification, newest first
    corrupt_skipped: List[str] = field(default_factory=list)


def resume_latest(store: CheckpointStore) -> Optional[LoadedSnapshot]:
    """Load the newest snapshot that passes verification.

    Returns ``None`` when the store has no usable snapshot (fresh run).
    Raises :class:`CheckpointCorruptError` only when snapshots exist but
    *every* one of them is corrupt — starting silently from scratch
    would discard work the operator believes is checkpointed.
    """
    entries = store.snapshots()
    corrupt: List[str] = []
    for info in reversed(entries):
        try:
            state = store.load(info)
        except CheckpointCorruptError:
            corrupt.append(info.snapshot_id)
            continue
        return LoadedSnapshot(info=info, state=state, corrupt_skipped=corrupt)
    if corrupt:
        raise CheckpointCorruptError(
            f"all {len(corrupt)} snapshots failed verification: {corrupt}"
        )
    return None


@dataclass
class ResumeReport:
    """How a search run started: fresh, or restored from which snapshot."""

    resumed_from_step: Optional[int] = None
    snapshot_id: Optional[str] = None
    corrupt_skipped: List[str] = field(default_factory=list)


def resume_search(store: CheckpointStore, search: Any):
    """Restore ``search`` from the newest good snapshot, if one exists.

    Returns ``(next_step, history, report)``; ``next_step`` is 0 with an
    empty history for a fresh start.  When the search carries a
    telemetry handle, a fresh start resets its run-scoped metrics (a
    restarted process with no usable snapshot must not report counts
    from rolled-back steps), while churn metrics (``recovery.*`` etc.)
    always survive.
    """
    telemetry = getattr(search, "telemetry", None)
    loaded = resume_latest(store)
    if loaded is None:
        if telemetry is not None:
            telemetry.reset_run_metrics()
            telemetry.event("recovery.fresh_start")
        return 0, [], ResumeReport()
    next_step, history = restore_search(search, loaded.state)
    report = ResumeReport(
        resumed_from_step=next_step,
        snapshot_id=loaded.info.snapshot_id,
        corrupt_skipped=loaded.corrupt_skipped,
    )
    if telemetry is not None:
        if loaded.corrupt_skipped:
            telemetry.counter("recovery.corrupt_snapshots").inc(
                len(loaded.corrupt_skipped)
            )
            telemetry.event(
                "recovery.corrupt_fallback",
                skipped=list(loaded.corrupt_skipped),
                used_snapshot_id=loaded.info.snapshot_id,
            )
        telemetry.counter("recovery.resumes").inc()
        telemetry.event(
            "recovery.resumed",
            step=next_step,
            snapshot_id=loaded.info.snapshot_id,
            corrupt_skipped=len(loaded.corrupt_skipped),
        )
    return next_step, history, report
