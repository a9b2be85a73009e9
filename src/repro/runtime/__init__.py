"""Fault-tolerant search runtime: checkpointing, recovery, fault injection.

The paper's search jobs run for days across thousands of accelerator
cores; surviving preemption and hardware failure without losing (or
perturbing) the search is part of the system design.  This package
reproduces that layer at benchmark scale:

* :mod:`repro.runtime.atomic` — crash-safe write primitives;
* :mod:`repro.runtime.checkpoint` — versioned, checksummed snapshots of
  the *complete* search state (policy + optimizer moments, supernet
  weights, eval-cache contents, rng bit-generator streams, counters);
* :mod:`repro.runtime.recovery` — resume-from-latest with corruption
  fallback; resumed runs are bit-identical to uninterrupted ones;
* :mod:`repro.runtime.faults` — deterministic seeded fault injection
  (crashes, stragglers, corrupted snapshots, exhausted pipelines);
* :mod:`repro.runtime.supervisor` — bounded-restart retry loop with
  backoff and heartbeat accounting that drives a search to completion
  across injected crashes.
"""

from .artifact import (
    ARTIFACT_FORMAT,
    ARTIFACT_KIND,
    ElasticArtifact,
    load_elastic_artifact,
    restore_elastic_supernet,
    save_elastic_artifact,
)
from .atomic import atomic_write_bytes, atomic_write_json, atomic_write_text, file_sha256
from .checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointStore,
    SnapshotInfo,
    decode_history,
    encode_history,
    pack_state,
    restore_search,
    restore_supernet_state,
    search_checkpoint_payload,
    supernet_state,
    unpack_state,
)
from .errors import (
    NON_RETRYABLE_TYPES,
    SearchInterrupted,
    WorkerCrashError,
    classify_error,
    is_retryable,
)
from .faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    FiredFault,
    InjectedCrash,
    InjectedFault,
)
from .recovery import LoadedSnapshot, ResumeReport, resume_latest, resume_search
from .signals import GracefulShutdown
from .supervisor import (
    AttemptRecord,
    CheckpointedRun,
    RestartBudgetExceeded,
    SearchSupervisor,
    SupervisedResult,
    SupervisorConfig,
    run_with_checkpoints,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_KIND",
    "CHECKPOINT_FORMAT",
    "ElasticArtifact",
    "load_elastic_artifact",
    "restore_elastic_supernet",
    "save_elastic_artifact",
    "FAULT_KINDS",
    "NON_RETRYABLE_TYPES",
    "WorkerCrashError",
    "classify_error",
    "is_retryable",
    "AttemptRecord",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointStore",
    "CheckpointedRun",
    "FaultInjector",
    "FaultSpec",
    "FiredFault",
    "GracefulShutdown",
    "InjectedCrash",
    "InjectedFault",
    "LoadedSnapshot",
    "SearchInterrupted",
    "RestartBudgetExceeded",
    "ResumeReport",
    "SearchSupervisor",
    "SnapshotInfo",
    "SupervisedResult",
    "SupervisorConfig",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "decode_history",
    "encode_history",
    "file_sha256",
    "pack_state",
    "restore_search",
    "restore_supernet_state",
    "resume_latest",
    "resume_search",
    "run_with_checkpoints",
    "search_checkpoint_payload",
    "supernet_state",
    "unpack_state",
]
