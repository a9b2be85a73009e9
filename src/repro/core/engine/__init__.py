"""Composable search engine: shared step pipeline, pluggable backends.

See :mod:`repro.core.engine.engine` for the stage graph and
:mod:`repro.core.engine.backends` for the execution/determinism
contract.
"""

from .backends import (
    BACKEND_ENV_VAR,
    BACKEND_NAMES,
    DIST_BIND_ENV_VAR,
    WORKERS_ENV_VAR,
    ExecutionBackend,
    default_worker_count,
    process_start_method,
    resolve_backend,
    shutdown_pools,
)
from .worker import (
    RemoteContextRef,
    StageTask,
    run_stage_task,
)
from .engine import (
    CandidateRecord,
    DrawnCandidate,
    PerformanceFn,
    SearchConfig,
    SearchEngine,
    SearchResult,
    StepRecord,
    SuperNetwork,
    group_unique_architectures,
)


def __getattr__(name: str):
    # WorkerHost resolves lazily (PEP 562): importing .distributed
    # eagerly would pull the socket transport — and through it
    # repro.service — into every `import repro.core`, re-entering the
    # partially-initialized core package via runtime.checkpoint.
    if name == "WorkerHost":
        from .distributed import WorkerHost

        return WorkerHost
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BACKEND_ENV_VAR",
    "BACKEND_NAMES",
    "DIST_BIND_ENV_VAR",
    "WORKERS_ENV_VAR",
    "CandidateRecord",
    "DrawnCandidate",
    "ExecutionBackend",
    "PerformanceFn",
    "RemoteContextRef",
    "SearchConfig",
    "SearchEngine",
    "SearchResult",
    "StageTask",
    "StepRecord",
    "SuperNetwork",
    "WorkerHost",
    "default_worker_count",
    "group_unique_architectures",
    "process_start_method",
    "resolve_backend",
    "run_stage_task",
    "shutdown_pools",
]
