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
* :class:`ThreadPoolBackend` — fans tasks out across a shared worker
  pool.  Cheap (no serialization) but the GIL caps it on CPU-bound
  scoring; best when tasks are latency-bound or release the GIL in
  NumPy kernels.
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

**Determinism contract.**  A backend may only be handed tasks whose
outputs are independent of scheduling: pure functions of their inputs,
or functions whose randomness comes from :meth:`rng_streams`.  Streams
are split per *task* (not per worker) from a counter-stamped
:class:`numpy.random.SeedSequence`, so task ``i`` of split ``k`` draws
the same stream no matter how many workers exist or which thread or
process runs it.  The split counter is part of :meth:`state_dict`,
rides in search checkpoints, and restores on resume — crash-resumed
runs replay the same streams an uninterrupted run would have drawn.
Order-preserving reduction (results come back in task order, never
completion order) closes the contract: parallelism changes wall-clock,
never numerics.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from abc import ABC, abstractmethod
from concurrent.futures import Executor, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

# Imported for its atexit hook, which must be registered before ours
# below: atexit runs LIFO, and worker pools have to shut down before the
# shared-memory segments their workers read are unlinked.
from . import shm  # noqa: F401

T = TypeVar("T")
R = TypeVar("R")

#: Environment variables consulted when a search does not pin a backend
#: explicitly — the CI matrix runs the whole test suite under
#: ``REPRO_BACKEND=threads`` / ``REPRO_BACKEND=processes`` to prove
#: backend equivalence at scale.
BACKEND_ENV_VAR = "REPRO_BACKEND"
WORKERS_ENV_VAR = "REPRO_WORKERS"


def default_worker_count() -> int:
    """Worker count when none is requested: min(4, available cores)."""
    return max(1, min(4, os.cpu_count() or 1))


class ExecutionBackend(ABC):
    """Order-preserving task executor with deterministic rng splitting."""

    #: short name used in CLI flags, telemetry labels, and snapshots
    name: str = "abstract"
    #: whether this backend runs tasks in other *processes* — the engine
    #: routes stage work through serializable task payloads instead of
    #: closures when this is set
    remote: bool = False

    def __init__(self, seed: int = 0, workers: int = 1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._seed = int(seed)
        #: how many stream splits this backend has handed out; part of
        #: the checkpoint state so resumed runs continue the sequence
        self._rng_spawns = 0

    # ------------------------------------------------------------------
    @abstractmethod
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, returning results in item order.

        The reduction is order-preserving by contract: ``result[i]``
        corresponds to ``items[i]`` regardless of which worker finished
        first.  Exceptions raised by any task propagate to the caller.
        """

    def rng_streams(self, count: int) -> List[np.random.Generator]:
        """``count`` independent generators for one fan-out, split
        deterministically.

        Stream ``i`` depends only on ``(seed, split_counter, i)`` — not
        on worker count, thread identity, or scheduling — so serial and
        pooled execution consume identical randomness.  Each call
        advances the split counter (a new fan-out must not reuse the
        previous fan-out's streams).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        sequence = np.random.SeedSequence(entropy=(self._seed, self._rng_spawns))
        self._rng_spawns += 1
        return [np.random.default_rng(child) for child in sequence.spawn(count)]

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of the backend's replayable state.

        ``name``/``workers`` are recorded for observability only — the
        equivalence contract makes backends interchangeable across a
        resume — while ``rng_spawns`` must be restored for the stream
        sequence to continue bit-identically.
        """
        return {
            "name": self.name,
            "workers": int(self.workers),
            "rng_spawns": int(self._rng_spawns),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`state_dict` output (the split counter)."""
        self._rng_spawns = int(state["rng_spawns"])

    def close(self) -> None:
        """Release resources this backend *owns* (shared pools stay up)."""


class SerialBackend(ExecutionBackend):
    """Run every task on the calling thread, in order.

    This is the reference semantics: no concurrency, no reordering,
    exactly the execution the original sequential step loop performed.
    """

    name = "serial"

    def __init__(self, seed: int = 0):
        super().__init__(seed=seed, workers=1)

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]


# ----------------------------------------------------------------------
# Executor-pool registry
# ----------------------------------------------------------------------
# Worker pools are shared per (kind, configuration) across backend
# instances: tests and sweeps construct hundreds of short-lived
# searches, and spinning an executor up and down for each would
# dominate their cost.  Shared pools live until `shutdown_pools()` —
# registered with atexit so interpreter exit reaps them — while pools a
# backend was asked to own (``shared=False``) are released by that
# backend's `close()`.  Thread pools are executors; the remote backends
# register their worker clusters here too (`shutdown(wait=...)` is the
# whole interface).
_POOLS: Dict[Tuple[Any, ...], Executor] = {}
_POOLS_LOCK = threading.Lock()


def _shared_pool(key: Tuple[Any, ...], factory: Callable[[], Executor]) -> Executor:
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            pool = _POOLS[key] = factory()
        return pool


def _discard_shared_pool(key: Tuple[Any, ...], pool: Executor) -> None:
    """Drop ``pool`` from the registry (it broke or is being replaced)."""
    with _POOLS_LOCK:
        if _POOLS.get(key) is pool:
            del _POOLS[key]


def shutdown_pools(wait: bool = True) -> None:
    """Shut down every shared executor pool.

    Called automatically at interpreter exit; call it explicitly to
    reclaim workers mid-process (the next backend ``map`` transparently
    builds fresh pools).
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=wait)


atexit.register(shutdown_pools)


def _thread_pool_factory(workers: int) -> Callable[[], Executor]:
    def factory() -> Executor:
        return ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=f"repro-engine-{workers}"
        )

    return factory


def process_start_method() -> str:
    """The start method process pools use: ``fork`` where the platform
    offers it (workers inherit the imported modules instead of
    re-importing them, which keeps worker startup in the milliseconds),
    else the platform default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return multiprocessing.get_start_method()


class ThreadPoolBackend(ExecutionBackend):
    """Fan tasks out across a thread pool, gathering in order.

    NumPy releases the GIL inside its kernels and candidate pricing is
    frequently latency- rather than compute-bound (simulator calls,
    testbed measurements), so threads buy real step-time parallelism
    without the serialization cost a process pool adds for shard-sized
    payloads.  ``Executor.map`` yields results in submission order,
    which is what keeps reductions (and therefore policy and weight
    updates) bit-identical to :class:`SerialBackend`.
    """

    name = "threads"

    def __init__(
        self,
        workers: Optional[int] = None,
        seed: int = 0,
        shared: bool = True,
    ):
        super().__init__(
            seed=seed,
            workers=workers if workers is not None else default_worker_count(),
        )
        self._shared = shared
        self._owned_pool: Optional[Executor] = None

    def _pool(self) -> Executor:
        if self._shared:
            return _shared_pool(
                ("threads", self.workers), _thread_pool_factory(self.workers)
            )
        if self._owned_pool is None:
            self._owned_pool = _thread_pool_factory(self.workers)()
        return self._owned_pool

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        if len(items) <= 1 or self.workers == 1:
            return [fn(item) for item in items]
        return list(self._pool().map(fn, items))

    def close(self) -> None:
        if self._owned_pool is not None:
            self._owned_pool.shutdown(wait=True)
            self._owned_pool = None


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
def _remote_backend(name: str) -> Callable[[Optional[int], int], ExecutionBackend]:
    def factory(workers: Optional[int], seed: int) -> ExecutionBackend:
        # Imported lazily: distributed.py pulls in the socket transport
        # (which shares framing with repro.service) and imports this
        # module back — registry construction must not trigger that cycle.
        from . import distributed

        return getattr(distributed, name)(workers=workers, seed=seed)

    return factory


_REGISTRY: Dict[str, Callable[[Optional[int], int], ExecutionBackend]] = {
    "serial": lambda workers, seed: SerialBackend(seed=seed),
    "threads": lambda workers, seed: ThreadPoolBackend(workers=workers, seed=seed),
    "processes": _remote_backend("ProcessPoolBackend"),
    "distributed": _remote_backend("DistributedBackend"),
}

#: Spec names accepted by :func:`resolve_backend` — derived from the
#: registry, so a new backend shows up everywhere (CLI choices, error
#: messages) by registration alone.
BACKEND_NAMES = tuple(_REGISTRY)

BackendSpec = Union[None, str, ExecutionBackend]


def resolve_backend(
    spec: BackendSpec = None,
    workers: Optional[int] = None,
    seed: int = 0,
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
    return factory(workers, seed)
