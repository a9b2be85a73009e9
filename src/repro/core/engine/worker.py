"""Serializable stage tasks and the engine-side context handle.

This module is the picklable boundary between the engine and its
remote workers: a :class:`StageTask` carries only plain data
(architectures, batch arrays, rng generators) plus a
:class:`RemoteContextRef` naming the scoring context a worker must hold
and the weight version it must score against.  Every remote worker
runs one loop (:class:`~.distributed.WorkerHost`): it rehydrates the
supernet once per context from the spec the ``context`` message
carries, validates its parameter shapes against the published layout,
and refreshes its weights whenever a task's ``version`` is newer than
the one it last applied (a ``train_many`` task also runs the group's
backward there and hands the gradient back).  The engine's side of that
contract is the :class:`RemoteShardContext` handle
:func:`build_remote_context` returns.

Where a fan-out runs is the engine's decision alone
(:meth:`SearchEngine._remote_active`): what it ships goes to workers,
what it keeps it runs against its live supernet through the same
:func:`execute_stage_kind` dispatch — no task ever comes back to the
engine thread to be executed.
"""

from __future__ import annotations

import itertools
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from .shm import SharedGradients, SharedWeights, shared_memory_available, weight_layout

#: Stage-task kinds the worker knows how to run.
TASK_KINDS = ("quality_many", "quality_split", "train_many")


@dataclass(frozen=True)
class RemoteContextRef:
    """Names one scoring context and the weight state a task needs.

    ``version`` stamps the weight state this task must score against — a
    spawned worker whose applied version is older copies in from the
    shared segment first; a dialled-in one was pushed it ahead of the task.
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


# ----------------------------------------------------------------------
# Per-process state
# ----------------------------------------------------------------------
_IS_WORKER = False

_CONTEXT_COUNTER = itertools.count()


def mark_worker_process() -> None:
    """First call in a controller-spawned worker: mark this process."""
    global _IS_WORKER
    _IS_WORKER = True


def in_worker() -> bool:
    """Whether this process is a spawned worker (vs the engine process)."""
    return _IS_WORKER


def build_supernet_from_spec(spec: Tuple[Any, ...]) -> Any:
    """Instantiate a supernet from its serialized spec.

    Specs come in two flavors: ``("factory", cls, args, kwargs)`` —
    rebuild by calling the class (the normal path; config objects are
    tiny and the constructor re-creates every parameter array, which
    the shared weights then overwrite) — and ``("pickle", supernet)``
    for hosts without a usable constructor spec.
    """
    kind = spec[0]
    if kind == "factory":
        _, cls, args, kwargs = spec
        return cls(*args, **kwargs)
    if kind == "pickle":
        return spec[1]
    raise ValueError(f"unknown supernet spec kind {kind!r}")


# ----------------------------------------------------------------------
# Task execution
# ----------------------------------------------------------------------
def execute_stage_kind(
    supernet: Any, kind: str, payload: Tuple[Any, ...], params=None, image=None
) -> Any:
    """Run one stage-task kind against ``supernet``.

    The single kind dispatch shared by every executor: worker hosts
    call it (through :func:`run_stage_task`) against their rehydrated
    supernet, with the parameter list and gradient image they hold for
    ``train_many``; the engine calls it in-process for the scoring kinds.
    """
    if kind == "train_many":
        return _train_many(supernet, payload, params, image)
    if kind == "quality_many":
        arch, inputs_seq, labels_seq = payload
        return [float(v) for v in supernet.quality_many(arch, inputs_seq, labels_seq)]
    if kind == "quality_split":
        arch, inputs, labels, rng = payload
        return float(supernet.quality_split(arch, inputs, labels, rng))
    raise ValueError(f"unknown stage-task kind {kind!r}")


def _train_many(
    supernet: Any, payload: Tuple[Any, ...], params: list, image: Optional[SharedGradients]
) -> Tuple[List[float], List[int], Optional[List[np.ndarray]]]:
    """One group's qualities *and* gradient, computed from zero.

    Returns ``(qualities, active, gradients)``: ``active`` indexes the
    parameters that received a gradient.  The gradients land in slot
    ``slot`` of ``image`` (``gradients`` is then ``None``) or come back
    as copies — the next group this supernet runs reuses the buffers.
    """
    arch, inputs_seq, labels_seq, scale, slot = payload
    for param in params:
        param.grad = None
    qualities, loss = supernet.quality_and_loss_many(arch, inputs_seq, labels_seq)
    loss.backward(np.asarray(scale))
    active = [i for i, param in enumerate(params) if param.grad is not None]
    qualities = [float(quality) for quality in qualities]
    if image is None:
        return qualities, active, [params[i].grad.copy() for i in active]
    for i in active:
        np.copyto(image.views[slot][i], params[i].grad)
    return qualities, active, None


def run_stage_task(
    task: StageTask, context_for: Callable[[RemoteContextRef], Any]
) -> Tuple[Any, float]:
    """Execute one stage task in a worker; returns ``(value, seconds)``.

    What a :class:`~.distributed.WorkerHost` runs per ``task`` message
    (``context_for`` resolves the rehydrated context, weights refreshed
    to the task's version) and the ``fn`` the engine hands
    ``backend.map`` with the tasks it ships.  Timed next to the
    execution, so workers never touch the metrics registry.
    """
    start = time.perf_counter()
    ctx = context_for(task.context)
    value = execute_stage_kind(
        ctx.supernet, task.kind, task.payload, ctx.params, ctx.gradients
    )
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


def train_many_payloads(payloads, groups, num_cores: int) -> List[Tuple[Any, ...]]:
    """:func:`quality_many_payloads` extended, per group, with the seed
    of its backward (its share of the shard) and the gradient slot it owns."""
    return [
        (*payload, len(positions) / num_cores, slot)
        for slot, (payload, positions) in enumerate(zip(payloads, groups))
    ]


def quality_split_payloads(
    drawn: Sequence[Tuple[Any, Sequence[int]]],
    batches: Sequence[Any],
    streams: Sequence[np.random.Generator],
) -> List[Tuple[Any, ...]]:
    """One split-rng scoring payload per candidate.

    ``batches`` aligns with ``drawn`` — pass ``[batch] * len(drawn)``
    for the shared-batch variant.  Generators pickle with their exact
    bit-generator state, so a worker draws the same stream the engine
    thread would have.
    """
    return [
        (arch, batch.inputs, batch.labels, stream)
        for (arch, _), batch, stream in zip(drawn, batches, streams)
    ]


def payload_nbytes(tasks: Sequence[StageTask]) -> int:
    """Approximate pickled payload volume of a fan-out, for telemetry.

    Counts ndarray bytes (the dominant term — batch arrays) found
    anywhere in the payloads; container and spec overhead is noise by
    comparison and not worth a pickle round-trip to measure.
    """
    total = 0

    def walk(value: Any) -> None:
        nonlocal total
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)

    for task in tasks:
        walk(task.payload)
    return total


# ----------------------------------------------------------------------
# Engine-side context construction
# ----------------------------------------------------------------------
def worker_spec_for(supernet: Any) -> Tuple[Any, ...]:
    """The serialized-rebuild spec of ``supernet``.

    A supernet that follows the ``cls(config)`` constructor convention
    ships as ``("factory", cls, (config,), {})``: workers reconstruct
    the module graph from the (tiny) config and then overwrite every
    parameter from the shared-weights segment, so the instance itself
    never needs to pickle.  That matters: a populated tape cache holds
    per-graph locks, which makes whole-object pickling of a warmed-up
    supernet impossible.  One without a ``config`` falls back to
    whole-object pickling, ``("pickle", supernet)``.
    """
    config = getattr(supernet, "config", None)
    if config is not None:
        return ("factory", type(supernet), (config,), {})
    return ("pickle", supernet)


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

    Owns the weights segment and the gradient image (when the workers
    share this machine's memory) and tracks the published version — the
    one monotonic counter tasks are stamped with.  Built through
    :func:`build_remote_context`, which validates the whole round trip
    before any worker sees a task.
    """

    def __init__(
        self,
        supernet: Any,
        spec_bytes: bytes,
        weights: Optional[SharedWeights],
        cluster: Optional[Any],
        gradients: Optional[SharedGradients] = None,
    ):
        self.supernet = supernet
        self.params = list(supernet.parameters())
        self.param_arrays = [p.data for p in self.params]
        self.weights = weights
        self.gradients = gradients
        self.cluster = cluster
        # unique across processes and engine instances
        self.context_id = f"{os.getpid()}-{next(_CONTEXT_COUNTER)}"
        self.version = weights.version if weights is not None else 1
        self._released = False
        if cluster is not None:
            cluster.register_context(
                self.context_id,
                spec_bytes,
                self.version,
                weights.name if weights is not None else None,
                self.param_arrays,
                gradients and (len(gradients.views), gradients.name),
            )

    def ref(self) -> RemoteContextRef:
        """A picklable reference stamped with the current version."""
        return RemoteContextRef(context_id=self.context_id, version=self.version)

    def publish(self, minimum_version: int = 0) -> int:
        """Make the live parameter arrays the next weight version.

        With a segment this is the in-place shared-memory write and
        workers copy in when a task's stamp says so; without one the
        cluster pushes the bytes to its workers.  A resumed run passes
        ``minimum_version`` (its checkpoint's recorded version + 1):
        the version stays monotonic across crash/resume, so a surviving
        worker whose applied version predates the crash still refreshes
        on its first post-resume task.
        """
        if self.weights is not None:
            self.version = self.weights.publish(self.param_arrays, minimum_version)
        else:
            self.version = max(self.version + 1, int(minimum_version))
        if self.cluster is not None:
            self.cluster.update_weights(
                self.context_id, self.version, self.param_arrays
            )
        return self.version

    def release(self) -> None:
        """Tear down the segments and the workers' copies (idempotent)."""
        if self._released:
            return
        self._released = True
        if self.cluster is not None:
            self.cluster.release_context(self.context_id)
        for segment in (self.weights, self.gradients):
            if segment is not None:
                segment.release()

    def release_later(self) -> None:
        """Queue :meth:`release` (it takes locks; a finaliser must not)."""
        _PENDING_RELEASES.append(self)


def build_remote_context(
    supernet: Any,
    cluster_factory: Optional[Callable[[], Any]] = None,
    gradient_slots: int = 0,
) -> Optional[RemoteShardContext]:
    """Publish ``supernet`` for remote workers, or ``None`` if it
    cannot travel.

    The probe is strict so failures surface *here*, at registration,
    rather than as a crashed worker mid-step: the spec must survive a
    pickle round trip and rebuild into a supernet whose parameter
    shapes and dtypes match the live one exactly (published weights
    overwrite values, not structure), and parameters must be float64
    (both weight carriers assume it).  Any failure keeps the search on
    the always-correct in-process path — and skips cluster startup
    entirely.  Without a ``cluster_factory`` the handle still owns a
    weights segment: publishing needs no workers.  ``gradient_slots``
    (the most ``train_many`` tasks one fan-out ships) sizes its mirror.
    """
    weights = gradients = None
    try:
        arrays = [p.data for p in supernet.parameters()]
        weight_layout(arrays)  # float64 or TypeError
        spec_bytes = pickle.dumps(worker_spec_for(supernet))
        rebuilt = build_supernet_from_spec(pickle.loads(spec_bytes))
        rebuilt_arrays = [p.data for p in rebuilt.parameters()]
        if [(a.shape, a.dtype) for a in rebuilt_arrays] != [
            (a.shape, a.dtype) for a in arrays
        ]:
            return None
        cluster = cluster_factory() if cluster_factory is not None else None
        # A cluster with no address to dial spawned every worker here.
        if cluster is None or cluster.address is None:
            if not shared_memory_available():
                return None
            weights = SharedWeights.create(arrays)
            if gradient_slots:
                gradients = SharedGradients(weights.layout, gradient_slots)
        return RemoteShardContext(supernet, spec_bytes, weights, cluster, gradients)
    except Exception:
        for segment in (weights, gradients):
            if segment is not None:
                segment.release()
        return None
