"""Pluggable execution backends for the search engine.

The paper's first pillar is a *massively parallel* single-step search:
``N`` accelerator cores score one shard of candidates concurrently,
then the policy and the shared weights take one cross-shard update
(Section 4).  The engine (:mod:`repro.core.engine.engine`) expresses
every per-core computation as an order-preserving ``map`` over shard
tasks, and this module supplies the things that map runs on:

* :class:`SerialBackend` — the reference executor: one task after the
  other on the calling thread.  The semantics every other backend must
  reproduce bit-for-bit.
* :class:`~.distributed.ProcessPoolBackend` — fans *picklable* tasks
  out across worker processes: true multi-core execution for the
  compute-dominated scoring path.  Supernet weights travel through one
  shared-memory segment (see :mod:`.shm` / :mod:`.worker`), not through
  task pickles, and a killed worker's tasks are resubmitted (bounded
  per-task retries) without restarting the step.
* :class:`~.distributed.DistributedBackend` — the cross-*host* leg:
  a TCP controller sharding the same stage tasks across worker
  processes that may live on other machines (``repro worker``), with
  versioned weight broadcasts in place of the shared-memory segment.

The last two are one controller/worker substrate configured twice
(:mod:`.distributed`: spawned processes over socketpairs, or a TCP
listener); both are registered here lazily.

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
from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar, Union,
)

# Imported for its atexit hook, which must be registered before ours
# below: atexit runs LIFO, and worker pools have to shut down before the
# shared-memory segments their workers read are unlinked.
from . import shm  # noqa: F401

if TYPE_CHECKING:
    from .distributed import _Cluster

T = TypeVar("T")
R = TypeVar("R")

#: Environment variables consulted when a search does not pin a backend
#: explicitly (a flag or a config field always wins).
BACKEND_ENV_VAR = "REPRO_BACKEND"
WORKERS_ENV_VAR = "REPRO_WORKERS"


def default_worker_count() -> int:
    """Worker count when none is requested: min(4, available cores)."""
    return max(1, min(4, os.cpu_count() or 1))


class ExecutionBackend(ABC):
    """Order-preserving executor of pure tasks."""

    #: short name used in CLI flags, telemetry labels, and snapshots
    name: str = "abstract"
    #: whether this backend runs tasks in other *processes* — the engine
    #: routes stage work through serializable task payloads instead of
    #: closures when this is set
    remote: bool = False

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers

    # ------------------------------------------------------------------
    @abstractmethod
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, returning results in item order.

        The reduction is order-preserving by contract: ``result[i]``
        corresponds to ``items[i]`` regardless of which worker finished
        first.  Exceptions raised by any task propagate to the caller.
        """

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of the backend, for a search checkpoint.

        ``name``/``workers`` are recorded for observability only: the
        equivalence contract makes backends interchangeable across a
        resume.
        """
        return {"name": self.name, "workers": int(self.workers)}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`state_dict` output (nothing to replay here)."""

    def close(self) -> None:
        """Release resources this backend *owns* (shared pools stay up)."""


class SerialBackend(ExecutionBackend):
    """Run every task on the calling thread, in order.

    This is the reference semantics: no concurrency, no reordering,
    exactly the execution the original sequential step loop performed.
    """

    name = "serial"

    def __init__(self):
        super().__init__(workers=1)

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]


# ----------------------------------------------------------------------
# Cluster registry
# ----------------------------------------------------------------------
# Worker clusters are shared per (kind, configuration) across backend
# instances: tests and sweeps construct hundreds of short-lived
# searches, and spinning workers up and down for each would dominate
# their cost.  Shared clusters live until `shutdown_pools()` —
# registered with atexit so interpreter exit reaps them — while a
# cluster a backend was asked to own (``shared=False``) is released by
# that backend's `close()`.
_POOLS: Dict[Tuple[Any, ...], "_Cluster"] = {}
_POOLS_LOCK = threading.Lock()


def _shared_pool(key: Tuple[Any, ...], factory: Callable[[], "_Cluster"]) -> "_Cluster":
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            pool = _POOLS[key] = factory()
        return pool


def _discard_shared_pool(key: Tuple[Any, ...], pool: "_Cluster") -> None:
    """Drop ``pool`` from the registry (it broke or is being replaced)."""
    with _POOLS_LOCK:
        if _POOLS.get(key) is pool:
            del _POOLS[key]


def shutdown_pools(wait: bool = True) -> None:
    """Shut down every shared worker cluster.

    Called automatically at interpreter exit; call it explicitly to
    reclaim workers mid-process (the next backend ``map`` transparently
    builds fresh clusters).
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


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
def _remote_backend(name: str) -> Callable[[Optional[int]], ExecutionBackend]:
    def factory(workers: Optional[int]) -> ExecutionBackend:
        # Imported lazily: distributed.py pulls in the socket transport
        # (which shares framing with repro.service) and imports this
        # module back — registry construction must not trigger that cycle.
        from . import distributed

        return getattr(distributed, name)(workers=workers)

    return factory


_REGISTRY: Dict[str, Callable[[Optional[int]], ExecutionBackend]] = {
    "serial": lambda workers: SerialBackend(),
    "processes": _remote_backend("ProcessPoolBackend"),
    "distributed": _remote_backend("DistributedBackend"),
}

#: Spec names accepted by :func:`resolve_backend` — derived from the
#: registry, so a new backend shows up everywhere (CLI choices, error
#: messages) by registration alone.
BACKEND_NAMES = tuple(_REGISTRY)

BackendSpec = Union[None, str, ExecutionBackend]


def resolve_backend(
    spec: BackendSpec = None, workers: Optional[int] = None
) -> ExecutionBackend:
    """Build the execution backend a search asked for.

    ``spec`` may be an :class:`ExecutionBackend` instance (returned as
    is), a name from :data:`BACKEND_NAMES`, or ``None`` —
    in which case the :envvar:`REPRO_BACKEND` environment variable
    decides, defaulting to serial.  ``workers`` falls back to
    :envvar:`REPRO_WORKERS`, then to :func:`default_worker_count`.
    Errors name the source of the bad value — a misspelled environment
    variable should say so, not stack-trace as a bare ``ValueError``.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
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
                raise ValueError(
                    f"${WORKERS_ENV_VAR} must be an integer worker count, "
                    f"got {env_workers!r}"
                ) from None
    factory = _REGISTRY.get(str(spec).lower())
    if factory is None:
        raise ValueError(
            f"unknown execution backend {spec!r} (from {source}); "
            f"expected one of {BACKEND_NAMES}"
        )
    return factory(workers)
