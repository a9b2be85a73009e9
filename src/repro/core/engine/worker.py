"""Stage tasks and the engine-side context handle.

This module is the data boundary between the engine and its remote
workers: a :class:`StageTask` carries only plain data (an architecture
and its group's batch arrays) plus a :class:`RemoteContextRef` naming
the scoring context a worker must hold and the weight version it must
score against, flattened on the wire into a ``task`` message.  Every
remote worker runs one loop (:class:`~.distributed.WorkerHost`): it
rebuilds the supernet once per context from the spec the ``context``
message carries — a name in :data:`SUPERNETS` and its config as JSON —
validates its parameter shapes against the published layout, and runs
a task only at the weight ``version`` it is stamped with.  A task is a
forward pass only: training computes its gradient in the engine's
process.  The engine's side of that contract is the
:class:`RemoteShardContext` handle :func:`build_remote_context` returns.

Where a fan-out runs is the engine's decision alone
(:meth:`SearchEngine._remote_active`): what it ships goes to workers,
what it keeps it runs against its live supernet through the same
:func:`execute_stage_kind` dispatch — no task ever comes back to the
engine thread to be executed.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...supernet import dlrm, mixture, transformer, vision
from .shm import SharedWeights, shared_memory_available, weight_layout

#: Stage-task kinds the worker knows how to run.
TASK_KINDS = ("quality_many",)

#: The supernets a worker can host: the name a ``context`` message's
#: spec carries -> ``(class, config class)``.  Every one is
#: :class:`~repro.supernet.StackedScoring` and is built as ``cls(config)``.
SUPERNETS: Dict[str, Tuple[type, type]] = {
    "dlrm": (dlrm.DlrmSuperNetwork, dlrm.DlrmSupernetConfig),
    "mixture": (mixture.MixtureSuperNetwork, mixture.MixtureSupernetConfig),
    "transformer": (transformer.TransformerSuperNetwork, transformer.TransformerSupernetConfig),
    "vision": (vision.VisionSuperNetwork, vision.VisionSupernetConfig),
}


@dataclass(frozen=True)
class RemoteContextRef:
    """Names one scoring context and the weight state a task needs.

    ``version`` stamps the weight state this task must score against — a
    spawned worker finds it in the shared segment its parameters are
    bound to; a dialled-in one was pushed it ahead of the task.
    """

    context_id: str
    version: int


@dataclass(frozen=True)
class StageTask:
    """One unit of remote stage work: pure data plus a context ref."""

    stage: str
    kind: str
    context: RemoteContextRef
    payload: Tuple[Any, ...]


_CONTEXT_COUNTER = itertools.count()


def build_supernet_from_spec(spec: Dict[str, Any]) -> Any:
    """Rebuild a supernet from its ``{"supernet", "config"}`` spec.

    The constructor re-creates every parameter array from the (tiny)
    config; the published weights then overwrite their values.  JSON
    has no tuples, so list fields become tuples again.
    """
    cls, config_cls = SUPERNETS[spec["supernet"]]
    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in spec["config"].items()}
    return cls(config_cls(**fields))


# ----------------------------------------------------------------------
# Task execution
# ----------------------------------------------------------------------
def execute_stage_kind(supernet: Any, kind: str, payload: Tuple[Any, ...]) -> Any:
    """Run one stage-task kind against ``supernet``.

    The single kind dispatch shared by every executor: worker hosts
    call it (through :func:`run_stage_task`) against their rehydrated
    supernet; the engine calls it in-process.
    """
    if kind == "quality_many":
        arch, inputs_seq, labels_seq = payload
        return [float(v) for v in supernet.quality_many(arch, inputs_seq, labels_seq)]
    raise ValueError(f"unknown stage-task kind {kind!r}")


def run_stage_task(
    task: StageTask, context_for: Callable[[RemoteContextRef], Any]
) -> Tuple[Any, float]:
    """Execute one stage task in a worker; returns ``(value, seconds)``.

    What a :class:`~.distributed.WorkerHost` runs per ``task`` message
    (``context_for`` resolves the rehydrated context, its weights at the
    task's version) and the ``fn`` the engine hands
    ``backend.map`` with the tasks it ships.  Timed next to the
    execution, so workers never touch the metrics registry.
    """
    start = time.perf_counter()
    ctx = context_for(task.context)
    value = execute_stage_kind(ctx.supernet, task.kind, task.payload)
    return value, time.perf_counter() - start


# ----------------------------------------------------------------------
# Payload builders (the engine's closure-free stage decomposition)
# ----------------------------------------------------------------------
def quality_many_payloads(
    drawn: Sequence[Tuple[Any, Sequence[int]]],
    batches: Sequence[Any],
    groups: Sequence[List[int]],
) -> List[Tuple[Any, ...]]:
    """One grouped-scoring payload per unique architecture."""
    return [
        (
            drawn[positions[0]][0],
            [batches[i].inputs for i in positions],
            [batches[i].labels for i in positions],
        )
        for positions in groups
    ]


def payload_nbytes(tasks: Sequence[StageTask]) -> int:
    """Array bytes a fan-out ships, for telemetry: what the shared
    packer finds in the payloads (the JSON header is noise beside it)."""
    from ...runtime.checkpoint import pack_state  # runtime imports this package

    return sum(array.nbytes for task in tasks for array in pack_state(task.payload)[1])


# ----------------------------------------------------------------------
# Engine-side context construction
# ----------------------------------------------------------------------
def worker_spec_for(supernet: Any) -> Optional[Dict[str, Any]]:
    """The ``{"supernet": name, "config": fields}`` spec a worker
    rebuilds ``supernet`` from, or ``None`` when its type is not in
    :data:`SUPERNETS` (or it has no config)."""
    config = getattr(supernet, "config", None)
    for name, (cls, config_cls) in SUPERNETS.items():
        if type(supernet) is cls and isinstance(config, config_cls):
            return {"supernet": name, "config": dataclasses.asdict(config)}
    return None


#: Contexts whose engine was garbage-collected unreleased.  A finaliser
#: may run at any allocation — under a cluster lock, mid-``send`` — so
#: it only appends here (``RemoteShardContext.release_later``).
_PENDING_RELEASES: "deque[RemoteShardContext]" = deque()


def drain_pending_releases() -> None:
    """Release what finalisers queued; the cluster calls this from
    ``run_map`` / ``register_context`` / ``shutdown``, holding no lock."""
    while _PENDING_RELEASES:
        try:
            context = _PENDING_RELEASES.popleft()
        except IndexError:  # another thread got there first
            return
        context.release()


class RemoteShardContext:
    """Engine-side handle on one supernet published to workers.

    Owns the weights segment (when the workers share this machine's
    memory) and tracks the published version — the
    one monotonic counter tasks are stamped with.  While it owns a
    segment the supernet's parameters are bound to its views: the
    segment *is* the live weights, written in place by the optimizer.
    Built through :func:`build_remote_context`, which validates the
    whole round trip before any worker sees a task.
    """

    def __init__(
        self,
        supernet: Any,
        spec: Dict[str, Any],
        weights: Optional[SharedWeights],
        cluster: Optional[Any],
    ):
        self.supernet = supernet
        self.params = list(supernet.parameters())
        self.weights = weights
        self.cluster = cluster
        # unique across processes and engine instances
        self.context_id = f"{os.getpid()}-{next(_CONTEXT_COUNTER)}"
        self.version = weights.version if weights is not None else 1
        self._released = False
        if cluster is not None:
            cluster.register_context(
                self.context_id,
                spec,
                self.version,
                weights.name if weights is not None else None,
                self.param_arrays,
            )
        for param, view in zip(self.params, weights.views if weights is not None else ()):
            param.data = view

    @property
    def param_arrays(self) -> List[np.ndarray]:
        """The live parameter arrays (the segment's views while bound)."""
        return [param.data for param in self.params]

    def ref(self) -> RemoteContextRef:
        """A reference stamped with the current version."""
        return RemoteContextRef(context_id=self.context_id, version=self.version)

    def begin_write(self) -> None:
        """The live weights are about to change: a task stamped with the
        current version must not run on them (see :mod:`.shm`)."""
        if self.weights is not None:
            self.weights.begin_write()

    def publish(self) -> int:
        """Make the live parameter arrays the next weight version.

        With a segment the weights are already there: this ends the
        write at the next even version.  A parameter bound elsewhere
        since (another context on this supernet) is copied in and bound
        back first, so a rebinding costs one copy, never a stale weight.
        Without a segment the cluster pushes the bytes to its workers.
        A version only means something inside this context (whose id no
        snapshot records), so moving forward from the last one is all it
        takes.
        """
        if self.weights is not None:
            for param, view in zip(self.params, self.weights.views):
                if param.data is not view:
                    self.weights.begin_write()
                    np.copyto(view, param.data)
                    param.data = view
            self.version = self.weights.publish()
        else:
            self.version += 1
        if self.cluster is not None:
            self.cluster.update_weights(
                self.context_id, self.version, self.param_arrays
            )
        return self.version

    def release(self) -> None:
        """Tear down the segments and the workers' contexts (idempotent).
        A parameter still bound to this segment gets a private copy
        first; one bound to another context's is left alone."""
        if self._released:
            return
        self._released = True
        if self.cluster is not None:
            self.cluster.release_context(self.context_id)
        for param, view in zip(self.params, self.weights.views if self.weights is not None else ()):
            if param.data is view:
                param.data = view.copy()
        if self.weights is not None:
            self.weights.release()

    def release_later(self) -> None:
        """Queue :meth:`release` (it takes locks; a finaliser must not)."""
        _PENDING_RELEASES.append(self)


def build_remote_context(
    supernet: Any, cluster_factory: Optional[Callable[[], Any]] = None
) -> Optional[RemoteShardContext]:
    """Publish ``supernet`` for remote workers, or ``None`` if it
    cannot travel.

    A supernet with no spec (:func:`worker_spec_for`) registers nothing
    and starts no cluster.  One that has a spec is checked strictly, so
    a fault surfaces *here*, at registration, as an error naming it,
    never as a crashed worker mid-step or a search that silently stays
    in process: its parameters must share one float dtype (both weight
    carriers hold exactly that, :func:`.shm.weight_layout`), and the spec
    must rebuild into a supernet whose parameter shapes and dtypes match
    the live one exactly (published weights overwrite values, not
    structure).  Only the environment keeps the search on the in-process
    path: no shared memory here, or a cluster that cannot start.
    Without a ``cluster_factory`` the handle still owns a weights
    segment: publishing needs no workers.
    """
    spec = worker_spec_for(supernet)
    if spec is None:
        return None
    arrays = [p.data for p in supernet.parameters()]
    weight_layout(arrays)  # one float dtype, or TypeError
    rebuilt = [(p.data.shape, p.data.dtype) for p in build_supernet_from_spec(spec).parameters()]
    live = [(a.shape, a.dtype) for a in arrays]
    if rebuilt != live:
        i = next(i for i in range(len(live) + 1) if rebuilt[i : i + 1] != live[i : i + 1])
        raise ValueError(
            f"{type(supernet).__name__} cannot travel: its worker spec rebuilds "
            f"{len(rebuilt)} parameters for its {len(live)}, and parameter {i} as "
            f"{_describe(rebuilt[i : i + 1])} for the live {_describe(live[i : i + 1])}"
        )
    weights = None
    try:
        cluster = cluster_factory() if cluster_factory is not None else None
        # A cluster with no address to dial spawned every worker here.
        if cluster is None or cluster.address is None:
            if not shared_memory_available():
                return None
            weights = SharedWeights.create(arrays)
        return RemoteShardContext(supernet, spec, weights, cluster)
    except Exception:
        if weights is not None:
            weights.release()
        return None


def _describe(params: List[Tuple[Tuple[int, ...], np.dtype]]) -> str:
    """At most one ``(shape, dtype)`` pair, as ``(2, 3) float32``."""
    return " ".join(f"{shape} {dtype}" for shape, dtype in params) or "nothing"
