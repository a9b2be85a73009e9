"""Composable search engine: shared step pipeline, pluggable backends.

See :mod:`repro.core.engine.engine` for the stage graph and
:mod:`repro.core.engine.backends` for the execution/determinism
contract.
"""

from .backends import (
    BACKEND_ENV_VAR,
    BACKEND_NAMES,
    WORKERS_ENV_VAR,
    BackendSpec,
    ExecutionBackend,
    SerialBackend,
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

#: Remote-backend names resolved lazily (PEP 562): importing
#: .distributed eagerly would pull the socket transport — and through it
#: repro.service — into every `import repro.core`, re-entering the
#: partially-initialized core package via runtime.checkpoint.
_DISTRIBUTED_EXPORTS = (
    "DIST_BIND_ENV_VAR",
    "DistributedBackend",
    "ProcessPoolBackend",
    "WorkerHost",
    "run_worker",
)


def __getattr__(name: str):
    if name in _DISTRIBUTED_EXPORTS:
        from . import distributed

        return getattr(distributed, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BACKEND_ENV_VAR",
    "BACKEND_NAMES",
    "DIST_BIND_ENV_VAR",
    "WORKERS_ENV_VAR",
    "BackendSpec",
    "CandidateRecord",
    "DistributedBackend",
    "DrawnCandidate",
    "ExecutionBackend",
    "PerformanceFn",
    "ProcessPoolBackend",
    "RemoteContextRef",
    "SearchConfig",
    "SearchEngine",
    "SearchResult",
    "SerialBackend",
    "StageTask",
    "StepRecord",
    "SuperNetwork",
    "WorkerHost",
    "default_worker_count",
    "group_unique_architectures",
    "process_start_method",
    "resolve_backend",
    "run_stage_task",
    "run_worker",
    "shutdown_pools",
]
