"""The execution backend: where the search engine's per-core work runs.

The paper's first pillar is a *massively parallel* single-step search:
``N`` accelerator cores score one shard of candidates concurrently,
then the policy and the shared weights take one cross-shard update
(Section 4).  The engine (:mod:`repro.core.engine.engine`) expresses
every per-core computation as an order-preserving ``map`` over shard
tasks, and an :class:`ExecutionBackend` is what that map runs on.  A
backend is a value — a name from :data:`BACKEND_NAMES` and a worker
count — and nothing more:

* ``serial`` — the reference executor: one task after the other on the
  calling thread.  The semantics every other backend must reproduce
  bit-for-bit.
* ``processes`` — stage tasks (plain data, see :mod:`.worker`) fan out
  across worker processes this machine spawns, with supernet weights in
  one shared-memory segment (see :mod:`.shm`), not in task frames.
* ``distributed`` — the cross-*host* leg: a TCP controller sharding
  the same stage tasks across worker processes that may live on other
  machines (``repro worker``), with versioned weight broadcasts in
  place of the shared-memory segment.

The last two are one controller/worker substrate configured twice
(:class:`~.distributed._Cluster`): spawned processes over socketpairs,
or a TCP listener.  Clusters are shared per backend key, and the
search's context on one (its rehydrated supernet, its first wait for
a worker, its loss baseline) is the engine's, not the backend's.

**Determinism contract.**  Tasks are pure, and the gather is ordered:
a backend is only handed tasks whose outputs are functions of their
inputs alone, and results come back in task order, never completion
order.  Parallelism changes wall-clock, never numerics.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

# Imported for its atexit hook, which must be registered before ours
# below: atexit runs LIFO, and worker pools have to shut down before the
# shared-memory segments their workers read are unlinked.
from . import shm  # noqa: F401
from .worker import run_stage_task

if TYPE_CHECKING:
    from .distributed import _Cluster

T = TypeVar("T")
R = TypeVar("R")

#: Environment variables consulted when a search does not pin a backend
#: explicitly (a flag or a config field always wins).
BACKEND_ENV_VAR = "REPRO_BACKEND"
WORKERS_ENV_VAR = "REPRO_WORKERS"
#: Where a ``distributed`` controller listens for workers that dial in
#: (``repro worker --connect``); unset, it listens on loopback and
#: starts its own worker threads.
DIST_BIND_ENV_VAR = "REPRO_DIST_BIND"

#: Names accepted by :func:`resolve_backend` (and the CLI's ``--backend``).
BACKEND_NAMES = ("serial", "processes", "distributed")


def default_worker_count() -> int:
    """Worker count when none is requested: min(4, available cores)."""
    return max(1, min(4, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# Cluster registry
# ----------------------------------------------------------------------
# Worker clusters are shared per backend key across searches: tests and
# sweeps construct hundreds of short-lived searches, and spinning
# workers up and down for each would dominate their cost.  Clusters live
# until `shutdown_pools()`, which is registered with atexit so
# interpreter exit reaps them.
_POOLS: Dict[Tuple[Any, ...], "_Cluster"] = {}
_POOLS_LOCK = threading.Lock()


def shutdown_pools(wait: bool = True) -> None:
    """Shut down every shared worker cluster.

    Called automatically at interpreter exit; call it explicitly to
    reclaim workers mid-process (the next remote fan-out builds a fresh
    cluster, and a live search publishes its supernet there first).
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=wait)


atexit.register(shutdown_pools)


def process_start_method() -> str:
    """The start method process pools use: ``fork`` where the platform
    offers it (workers inherit the imported modules instead of
    re-importing them, which keeps worker startup in the milliseconds),
    else the platform default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return multiprocessing.get_start_method()


class ExecutionBackend:
    """An order-preserving executor of pure tasks: a name and a worker
    count, fixed at construction.

    ``serial`` runs every task on the calling thread, in order — the
    reference semantics.  A *remote* backend (``processes``,
    ``distributed``) ships stage tasks to the workers of its shared
    cluster, the one registered under :attr:`key`: tasks are data, not
    closures — :class:`~.worker.StageTask` payloads a worker executes
    against a supernet it rehydrated once — so whether a fan-out ships
    is the engine's decision (:meth:`SearchEngine._remote_active`), and
    a map of any other ``fn`` runs the in-process loop.  Worker loss is
    survivable: tasks are pure, so a lost worker's tasks are resubmitted
    (at most ``_Cluster.max_task_retries`` times each) and the retried
    results are bit-identical.
    """

    def __init__(self, name: str, workers: Optional[int] = None):
        if name not in BACKEND_NAMES:
            raise ValueError(f"unknown execution backend {name!r}; expected one of {BACKEND_NAMES}")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        #: short name used in CLI flags and telemetry labels
        self.name = name
        #: whether tasks may run in other *processes*: the engine then
        #: routes stage work through serializable task payloads
        self.remote = name != "serial"
        #: serial runs on the calling thread: one worker, whatever was asked
        self.workers = (workers or default_worker_count()) if self.remote else 1
        #: the shared-cluster registry key; the bind decides whether a
        #: ``distributed`` cluster starts loopback workers of its own
        self.key = (name, self.workers, os.environ.get(DIST_BIND_ENV_VAR) or None)

    def cluster(self) -> "_Cluster":
        """The shared cluster registered under :attr:`key`, built on
        first use (and again after a ``shutdown_pools()``)."""
        # Imported lazily: distributed.py pulls in the socket transport,
        # which shares framing with repro.service.
        from .distributed import _Cluster

        with _POOLS_LOCK:
            cluster = _POOLS.get(self.key)
            if cluster is None:
                name, workers, bind = self.key
                cluster = _POOLS[self.key] = _Cluster(
                    workers, spawn=name == "processes", bind=bind
                )
            return cluster

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, returning results in item order.

        ``result[i]`` corresponds to ``items[i]`` regardless of which
        worker finished first; a task's exception propagates to the
        caller.  Stage tasks on a remote backend come back as
        ``(value, seconds, worker_id)``.
        """
        if not (self.remote and fn is run_stage_task):
            return [fn(item) for item in items]
        return self.cluster().run_map(items)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
def resolve_backend(spec: Optional[str] = None, workers: Optional[int] = None) -> ExecutionBackend:
    """Build the execution backend a search asked for.

    ``spec`` is a name from :data:`BACKEND_NAMES`, or ``None`` — in
    which case the :envvar:`REPRO_BACKEND` environment variable decides,
    defaulting to serial.  ``workers`` falls back to
    :envvar:`REPRO_WORKERS`, then to :func:`default_worker_count`.
    Errors name the source of the bad value — a misspelled environment
    variable should say so, not stack-trace as a bare ``ValueError``.
    """
    source = "backend spec"
    if spec is None:
        env_spec = os.environ.get(BACKEND_ENV_VAR)
        if env_spec:
            spec = env_spec
            source = f"${BACKEND_ENV_VAR}"
        else:
            spec = "serial"
    if workers is None:
        env_workers = os.environ.get(WORKERS_ENV_VAR)
        if env_workers:
            try:
                workers = int(env_workers)
            except ValueError:
                workers = 0
            if workers < 1:
                raise ValueError(
                    f"${WORKERS_ENV_VAR} must be a worker count >= 1, got {env_workers!r}"
                )
    name = str(spec).lower()
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown execution backend {spec!r} (from {source}); "
            f"expected one of {BACKEND_NAMES}"
        )
    return ExecutionBackend(name, workers)
