"""The remote worker substrate: one controller, two kinds of link.

This is the paper's deployment shape: one controller owns the policy and
the search loop, and ``N`` workers score shards against supernets they
rehydrated once from a serialized spec.  Both remote backends configure
the one :class:`_Cluster` controller (shared per backend key, see
:meth:`~.backends.ExecutionBackend.cluster`), and every worker is a
:class:`WorkerHost` running the same ``hello`` → ``context``/``task``/
``result`` loop over a connected socket:

* ``processes`` — the controller *spawns* ``workers`` processes on this
  machine, each joined over an anonymous ``socket.socketpair()``; no
  port is opened, and a lost worker is respawned before the next map.
* ``distributed`` — the controller binds a TCP listener and accepts
  workers whenever they arrive (``repro worker --connect host:port``).
  Without ``$REPRO_DIST_BIND`` it listens on loopback and also spawns
  ``workers`` loopback worker threads running the exact code path an
  external worker runs, so ``--backend distributed`` works out of the
  box on one machine and the wire protocol is exercised end-to-end even
  in tier-1 CI; a bind set there means external workers will dial in,
  and none is spawned.

Weights have two *carriers*, selected by the kind of link.  A spawned
worker shares this machine's memory: its ``context`` message names the
:class:`~.shm.SharedWeights` segment, its rehydrated parameters are
bound to the segment's views (as the controller's are), so no step
copies weights on either side; a task runs only when the segment's
version is its stamp.  A worker that dialled in over TCP
gets the same versions as a *push*: every ``optimizer_step()`` republish
broadcasts a versioned weight message, and a link is primed with every
registered context before it can be assigned work (:meth:`_Cluster._admit`),
so a worker never has to ask.  The determinism contract is
unchanged — a stage task is a pure function of its payload (batches
and architectures; no rng travels) and the gather is order-preserving —
so a remote search is bit-identical to a serial one.

Fault tolerance is *per-task* resubmission: a lost worker (connection
drop, SIGKILL) orphans only the tasks assigned to it, which are re-sent
to surviving workers with a bounded per-task retry budget; exhaustion
(or losing every worker) raises the retryable
:class:`~repro.runtime.errors.WorkerCrashError`, handing the step to the
supervisor's checkpoint/restart path.
"""

from __future__ import annotations

import builtins
import itertools
import math
import multiprocessing
import os
import socket
import threading
import time
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .backends import process_start_method
from ...searchspace.base import Architecture
from ...service.protocol import ProtocolError, write_frame
from .shm import SharedWeights, WeightLayout, weight_dtype, weight_layout
from .transport import (
    DEFAULT_BIND,
    TO_CONTROLLER,
    TO_WORKER,
    TRANSPORT_VERSION,
    encode_message,
    parse_address,
    recv_message,
    send_message,
    serve,
)
from .worker import (
    RemoteContextRef,
    StageTask,
    build_supernet_from_spec,
    drain_pending_releases,
    run_stage_task,
)


def _crash_error(message: str) -> Exception:
    from ...runtime.errors import WorkerCrashError

    return WorkerCrashError(message)


def _snapshot_weights(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The one array a weight broadcast carries: every parameter,
    flattened, in ``weight_layout`` order and their one float dtype."""
    return np.concatenate([np.ravel(a) for a in arrays])


def _error_fields(error: BaseException) -> List[str]:
    """A task's exception as it travels: the nearest builtin class in
    its MRO, and ``"OrigType: message"``."""
    builtin = next(c for c in type(error).__mro__ if c.__module__ == "builtins")
    return [builtin.__name__, f"{type(error).__name__}: {error}"]


def _error_from(fields: Any) -> Exception:
    """Inverse of :func:`_error_fields`: that builtin ``Exception``
    subclass (so ``is_retryable`` judges it as it would the original),
    or ``RuntimeError`` for any other name."""
    if not (isinstance(fields, list) and [type(f) for f in fields] == [str, str]):
        raise ProtocolError(f"an error frame carries [type name, message], got {fields!r}")
    name, text = fields
    cls = getattr(builtins, name, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        for base in cls.__mro__:  # the nearest that takes a message alone
            try:
                return base(text)
            except TypeError:  # e.g. UnicodeDecodeError wants five arguments
                pass
    return RuntimeError(text)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _HostContext:
    """One rehydrated supernet plus its last-applied weight version.
    Weights arrive as a pushed array (:meth:`apply`) or, given the name of
    the controller's shared ``segment``, the parameters are bound to its
    views.  Either holds ``dtype``, which the rehydrated parameters must
    have.  Parameters are walked once."""

    def __init__(
        self,
        supernet: Any,
        layout: WeightLayout,
        dtype: str,
        segment: Optional[str] = None,
    ):
        self.supernet = supernet
        self.params = list(supernet.parameters())
        self.layout = [
            (tuple(shape), int(offset), int(size)) for shape, offset, size in layout
        ]
        self.size = sum(size for _, _, size in self.layout)
        self.dtype = np.dtype(dtype)
        shapes = [tuple(p.data.shape) for p in self.params]
        expected = [shape for shape, _, _ in self.layout]
        if shapes != expected:
            raise RuntimeError(
                f"rehydrated supernet parameters {shapes} do not match the "
                f"published layout {expected}"
            )
        dtypes = {p.data.dtype for p in self.params} - {self.dtype}
        if dtypes:
            raise RuntimeError(
                f"rehydrated supernet parameters are {sorted(map(str, dtypes))}, "
                f"the published weights {self.dtype}"
            )
        self.shared = SharedWeights.attach(segment, self.layout, self.dtype) if segment else None
        for param, view in zip(self.params, self.shared.views if self.shared else ()):
            param.data = view
        self.applied_version = 0

    def apply(self, version: int, flat: Any) -> None:
        wanted = (self.dtype, (self.size,))
        if (getattr(flat, "dtype", None), getattr(flat, "shape", None)) != wanted:
            raise ProtocolError(f"weights {flat!r:.60} for a layout of {self.size} {self.dtype}s")
        if version <= self.applied_version:
            return
        for param, (shape, offset, size) in zip(self.params, self.layout):
            np.copyto(param.data, flat[offset : offset + size].reshape(shape))
        self.applied_version = int(version)

    def close(self) -> None:
        if self.shared is not None:
            for param in self.params:  # nothing may point into a closed mapping
                param.data = param.data.copy()
            self.shared.release()


class WorkerHost:
    """One worker's connection to a controller: the ``repro worker`` loop.

    Single-threaded by design: one socket, one message at a time, and
    after its ``hello`` it only answers (one ``result`` or ``error`` per
    task).  A frame :data:`~.transport.TO_WORKER` does not describe
    raises :class:`ProtocolError` out of :meth:`run`, which closes the
    link: the controller sees a lost worker.  The same loop runs as an
    external process (``repro worker``), as the cluster's loopback
    worker threads and — handed its connected socket instead of an
    address to dial — as a spawned ``processes`` worker: one code path,
    tested each way.
    """

    def __init__(
        self,
        address: Union[str, Tuple[str, int], socket.socket],
        worker_id: Optional[str] = None,
        connect_timeout: float = 10.0,
    ):
        if isinstance(address, str):
            address = parse_address(address)
        if not isinstance(address, socket.socket):
            address = (address[0], int(address[1]))
        self.address = address
        self.worker_id = worker_id or f"{socket.gethostname()}/{os.getpid()}"
        self.connect_timeout = connect_timeout
        self.executed = 0
        self._contexts: Dict[str, Union[_HostContext, Exception]] = {}
        self._sock: Optional[socket.socket] = None

    # -- lifecycle ------------------------------------------------------
    def run(self) -> int:
        """Serve until shutdown, EOF or a lost link; returns the number
        of tasks executed."""
        if isinstance(self.address, socket.socket):
            sock = self.address
        else:
            sock = socket.create_connection(self.address, timeout=self.connect_timeout)
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        try:
            send_message(
                sock,
                {"type": "hello", "transport": TRANSPORT_VERSION, "worker_id": self.worker_id},
            )
            serve(sock, TO_WORKER, self._handle)
        except OSError:
            pass  # the controller hung up: the end of a worker, as EOF is
        finally:
            self._sock = None
            sock.close()
        return self.executed

    def _handle(self, message: Dict[str, Any]) -> None:
        kind, context_id = message["type"], message.get("context_id")
        if kind == "task":
            self._handle_work(message)
        elif kind == "release":
            released = self._contexts.pop(context_id, None)
            if isinstance(released, _HostContext):
                released.close()
        elif kind == "weights":
            ctx = self._contexts.get(context_id)
            if isinstance(ctx, _HostContext):
                ctx.apply(message["version"], message["data"])
        else:
            # context: build the supernet once; a failure is remembered
            # and reported per-task rather than killing the worker.
            try:
                supernet = build_supernet_from_spec(message["spec"])
                ctx = _HostContext(
                    supernet,
                    message["layout"],
                    message["dtype"],
                    message.get("segment"),
                )
                if message.get("weights") is not None:
                    ctx.apply(message["version"], message["weights"])
            except Exception as error:
                ctx = error
            self._contexts[context_id] = ctx

    # -- work messages --------------------------------------------------
    def _context_for_task(self, ref: RemoteContextRef) -> _HostContext:
        """The context ``ref`` names, at its version: a pushed one at it
        or newer, a shared segment at exactly it (checked again when the
        task ends, :meth:`_handle_work`).  A link is primed before it is
        assigned work and frames arrive in order, so a task naming what
        never came (a released context, a controller out of order) or a
        segment at another version (a write in progress, or moved on)
        fails as a task: a worker never asks and never waits."""
        ctx = self._contexts.get(ref.context_id)
        if ctx is None:
            raise RuntimeError(
                f"worker {self.worker_id} holds no context {ref.context_id!r} "
                f"(released, or never sent on this link)"
            )
        if isinstance(ctx, Exception):
            raise ctx
        held = ctx.shared.version if ctx.shared is not None else ctx.applied_version
        if held < ref.version or (ctx.shared is not None and held != ref.version):
            raise RuntimeError(
                f"task stamped weight version {ref.version} of context "
                f"{ref.context_id!r} found version {held} on worker {self.worker_id}"
            )
        return ctx

    def _handle_work(self, message: Dict[str, Any]) -> None:
        """Execute one task and reply.  The reply is encoded inside the
        ``try``: a result that cannot travel comes back as the task's
        error, not as a dead worker."""
        task_id = message["task_id"]
        try:
            # An architecture travels as its {decision: value} dict.
            arch, *rest = message["payload"]
            arch = Architecture(arch) if isinstance(arch, dict) else arch
            ref = RemoteContextRef(message["context_id"], message["version"])
            task = StageTask(message["stage"], message["kind"], ref, (arch, *rest))
            value, seconds = run_stage_task(task, self._context_for_task)
            self._context_for_task(ref)  # the weights did not move under it
            reply = encode_message(
                {"type": "result", "task_id": task_id, "value": value, "seconds": seconds}
            )
        except Exception as error:  # deterministic task failure: report it
            reply = encode_message(
                {"type": "error", "task_id": task_id, "error": _error_fields(error)}
            )
        self.executed += 1
        write_frame(self._sock, reply)


#: Every live cluster in this process: what a forked worker inherited.
_LIVE_CLUSTERS: "weakref.WeakSet[_Cluster]" = weakref.WeakSet()

#: Held from ``socketpair()`` until the parent closed the worker's end, so
#: no worker forked meanwhile (any cluster, any thread) inherits a copy of
#: it — a dead worker is an EOF to the controller only if it held the last.
_SPAWN_LOCK = threading.Lock()


def _spawned_worker_main(
    sock: socket.socket, controller_ends: List[socket.socket], worker_id: str
) -> None:
    """Body of a controller-spawned worker process.

    The child first closes its copy of every controller-side socket —
    ``controller_ends`` (its own link's and those of siblings not yet
    admitted) and, under ``fork``, every other one the controller had
    open: a worker must see EOF, and exit, the moment its controller
    dies, which any worker's copy of the controller's end would prevent.
    """
    for controller_end in controller_ends:
        controller_end.close()
    for cluster in list(_LIVE_CLUSTERS):
        cluster._close_sockets()
    try:
        WorkerHost(sock, worker_id=worker_id).run()
    except Exception:
        pass  # loss is observed (and accounted) controller-side


# ----------------------------------------------------------------------
# Controller side
# ----------------------------------------------------------------------
class _TaskRecord:
    """One submitted task: its encoded frame, result slot, retry count,
    and what a result must fit — its kind and its batch count.
    Encoding comes first: a payload that cannot travel raises here."""

    __slots__ = ("task_id", "index", "frame", "retries", "link", "run", "kind", "batches")

    def __init__(self, task_id: int, index: int, message: dict, run: "_MapRun"):
        self.frame = encode_message({**message, "task_id": task_id})
        self.task_id = task_id
        self.index = index
        self.retries = 0
        self.link: Optional["_WorkerLink"] = None
        self.run = run
        self.kind = message["kind"]
        self.batches = len(message["payload"][1])

    def fits(self, value: Any) -> bool:
        """Whether a ``result`` value fits its task — one number per
        batch — checked before the engine zips it into shard positions."""
        return (
            type(value) is list
            and len(value) == self.batches
            and all(type(quality) in (int, float) for quality in value)
        )


class _MapRun:
    """Controller-side state of one in-flight order-preserving map."""

    __slots__ = ("results", "remaining", "failure")

    def __init__(self, count: int):
        self.results: List[Optional[Tuple[Any, float, str]]] = [None] * count
        self.remaining = count
        self.failure: Optional[BaseException] = None


class _WorkerLink:
    """One connected worker: socket, send lock and id; live while its
    cluster's ``_links`` holds it, its tasks the pending records naming it.

    ``process`` is the worker's handle when the controller spawned it
    (the link is a socketpair, the worker shares this machine's memory),
    ``None`` when it dialled in over TCP.
    """

    def __init__(self, sock: socket.socket, worker_id: str, process: Any):
        self.sock = sock
        self.worker_id = worker_id
        self.process = process
        #: orders the frames on this link; may be taken before the
        #: cluster's ``_cond``, never while holding it
        self._send_lock = threading.Lock()

    def send(self, message: Dict[str, Any]) -> None:
        with self._send_lock:
            send_message(self.sock, message)

    def send_frame(self, frame: bytes) -> None:
        """Send a task frame :meth:`_Cluster.run_map` encoded up front."""
        with self._send_lock:
            write_frame(self.sock, frame)


class _Cluster:
    """Worker links + context state, shared across searches.

    Registered in the cluster registry of :mod:`.backends` under a
    backend's key, so ``shutdown_pools()`` (and
    interpreter exit) reaps it through ``shutdown(wait=...)``.  One
    cluster serves every search in the process that picks the same key
    — the point: tests and sweeps run hundreds of searches, and workers
    rehydrate supernets per *context*, not per search object, so
    connection churn is zero.

    With ``spawn`` it spawns its ``workers`` as processes over
    socketpairs and never listens; without, it binds ``bind`` and admits
    whoever dials in — given no ``bind``, on :data:`~.transport.DEFAULT_BIND`
    and starting ``workers`` loopback threads of its own.
    """

    #: per-task resubmissions tolerated before a map gives up
    max_task_retries = 2

    def __init__(self, workers: int, spawn: bool = False, bind: Optional[str] = None):
        self.workers = workers
        self.worker_losses = 0
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._links: Dict[str, _WorkerLink] = {}
        self._contexts: Dict[str, Dict[str, Any]] = {}
        self._pending: Dict[int, _TaskRecord] = {}
        self._task_ids = itertools.count(1)
        self._rr = 0
        self._closed = False
        self._spawn_ids = itertools.count()
        self._listener: Optional[socket.socket] = None
        self.address: Optional[Tuple[str, int]] = None
        self._local_threads: List[threading.Thread] = []
        _LIVE_CLUSTERS.add(self)
        if spawn:
            self._fill_workers()
            return
        host, port = parse_address(bind or DEFAULT_BIND)
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.create_server((host, port), family=family)
        self.address = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-dist-accept", daemon=True
        )
        self._accept_thread.start()
        if bind is None:
            base = f"{socket.gethostname()}/{os.getpid()}"
            for index in range(workers):
                thread = threading.Thread(
                    target=self._run_local_worker,
                    args=(f"{base}/w{index}",),
                    name=f"repro-dist-worker-{index}",
                    daemon=True,
                )
                thread.start()
                self._local_threads.append(thread)

    # -- controller-spawned workers ------------------------------------
    def _fill_workers(self) -> None:
        """Spawn worker processes until ``workers`` are linked: at
        construction and before every map, so a lost worker is replaced.
        All are started before any is admitted — admission starts a
        receive thread, and a fork is safest with the fewest threads
        alive.  (No-op for a listening cluster: its workers dial in.)"""
        if self._listener is not None:
            return
        with self._lock:  # the usual case, without the process-wide lock
            if self._closed or len(self._links) >= self.workers:
                return
        with _SPAWN_LOCK:
            with self._lock:
                missing = 0 if self._closed else self.workers - len(self._links)
            started: List[Tuple[socket.socket, Any]] = []
            for _ in range(missing):
                started.append(self._spawn_worker([conn for conn, _ in started]))
            for conn, process in started:
                self._admit(conn, process)

    def _spawn_worker(self, unadmitted: List[socket.socket]) -> Tuple[socket.socket, Any]:
        controller_end, worker_end = socket.socketpair()
        worker_id = f"{socket.gethostname()}/{os.getpid()}/w{next(self._spawn_ids)}"
        process = multiprocessing.get_context(process_start_method()).Process(
            target=_spawned_worker_main,
            args=(worker_end, [controller_end, *unadmitted], worker_id),
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            controller_end.close()
            raise
        finally:
            worker_end.close()
        return controller_end, process

    def _close_sockets(self) -> None:
        """Close every controller-side socket: for a forked worker, where
        they are inherited copies.  Takes no lock — one held by another
        thread at the fork would never be released in the child."""
        sockets = [link.sock for link in self._links.values()]
        if self._listener is not None:
            sockets.append(self._listener)
        for sock in sockets:
            try:
                sock.close()
            except OSError:
                pass

    def _run_local_worker(self, worker_id: str) -> None:
        try:
            WorkerHost(self.address, worker_id=worker_id).run()
        except Exception:
            pass  # loss is observed (and accounted) controller-side

    # -- membership -----------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: cluster shut down
            threading.Thread(
                target=self._admit, args=(conn,), name="repro-dist-admit", daemon=True
            ).start()

    def _admit(self, conn: socket.socket, process: Optional[Any] = None) -> None:
        try:
            # A dialled-in worker says hello at once; a spawned one may
            # first have to start an interpreter (``spawn``).
            conn.settimeout(10.0 if process is None else 60.0)
            hello = recv_message(conn, TO_CONTROLLER)
            if (
                hello is None
                or hello["type"] != "hello"
                or hello["transport"] != TRANSPORT_VERSION
            ):
                self._reject(conn, process)
                return
            conn.settimeout(None)
            if conn.family != socket.AF_UNIX:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except (ProtocolError, OSError):
            # A malformed frame is refused like a wrong version: closed.
            self._reject(conn, process)
            return
        link = _WorkerLink(conn, hello["worker_id"], process)
        # Primed before assignable: the send lock is held from before the
        # link can be picked until its last context frame is written, so
        # every task, push and orphan bound for it queues behind contexts
        # snapshotted under the lock that registers and republishes them.
        try:
            with link._send_lock:
                with self._cond:
                    if self._closed:
                        self._reject(conn, process)
                        return
                    base, n = link.worker_id, 1
                    while link.worker_id in self._links:
                        n += 1
                        link.worker_id = f"{base}#{n}"
                    self._links[link.worker_id] = link
                    contexts = [dict(state) for state in self._contexts.values()]
                    self._cond.notify_all()
                for state in contexts:
                    send_message(conn, state)
        except (OSError, ProtocolError):
            self._handle_link_loss(link)
            return
        threading.Thread(
            target=self._recv_loop,
            args=(link,),
            name=f"repro-dist-recv-{link.worker_id}",
            daemon=True,
        ).start()

    def _reject(self, conn: socket.socket, process: Optional[Any]) -> None:
        conn.close()
        if process is not None:
            self._reap(process)

    @staticmethod
    def _reap(process: Any) -> None:
        """End a spawned worker (a no-op once it exited) and collect it."""
        process.kill()
        process.join(timeout=5.0)

    def wait_for_workers(self, count: int, timeout: float) -> int:
        """Block until ``count`` workers are connected (or timeout); a
        cluster that spawns its own tops them up and has nobody to wait for."""
        self._fill_workers()
        deadline = time.monotonic() + (timeout if self._listener is not None else 0.0)
        with self._cond:
            while len(self._links) < count and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            return len(self._links)

    @property
    def host_count(self) -> int:
        with self._lock:
            return len(self._links)

    # -- context / weight state ----------------------------------------
    # A context's state is its ``context`` message: spec, layout, version
    # and the weight carrier — ``segment`` names the shared weights
    # segment when this cluster spawned its workers (they share its
    # memory), ``weights`` holds the current array when workers dial in
    # over TCP.
    def _pushed_weights(self, arrays: Sequence[np.ndarray]) -> Optional[np.ndarray]:
        """A weight version as a TCP worker needs it (``None`` when none
        can exist: nobody dials into a cluster that does not listen)."""
        return _snapshot_weights(arrays) if self._listener is not None else None

    def register_context(
        self,
        context_id: str,
        spec: Dict[str, Any],
        version: int,
        segment: Optional[str],
        arrays: Sequence[np.ndarray],
    ) -> None:
        drain_pending_releases()
        state = {
            "type": "context",
            "context_id": context_id,
            "spec": spec,
            "layout": tuple(weight_layout(arrays)),
            "dtype": weight_dtype(arrays).str,
            "version": int(version),
            "segment": segment,
            "weights": self._pushed_weights(arrays),
        }
        with self._lock:
            self._contexts[context_id] = state
            links = list(self._links.values())
        self._broadcast(links, dict(state))

    def update_weights(
        self, context_id: str, version: int, arrays: Sequence[np.ndarray]
    ) -> None:
        weights = self._pushed_weights(arrays)
        with self._lock:
            state = self._contexts.get(context_id)
            if state is None:
                return
            state["version"] = int(version)
            state["weights"] = weights
            links = list(self._links.values())
        # Spawned workers compute on the segment itself; only dialled-in
        # ones are pushed to.
        if weights is not None:
            self._broadcast(
                links,
                {"type": "weights", "context_id": context_id, "version": int(version), "data": weights},
            )

    def release_context(self, context_id: str) -> None:
        with self._lock:
            self._contexts.pop(context_id, None)
            links = list(self._links.values())
        self._broadcast(links, {"type": "release", "context_id": context_id})

    def _broadcast(self, links: Sequence[_WorkerLink], message: Dict[str, Any]) -> None:
        for link in links:
            try:
                link.send(message)
            except (OSError, ProtocolError):
                self._handle_link_loss(link)

    # -- the map --------------------------------------------------------
    def run_map(self, tasks: Sequence[StageTask]) -> List[Tuple[Any, float, str]]:
        """Fan ``tasks`` out, gather ``(value, seconds, worker_id)`` in
        submission order; resubmit orphans of lost workers."""
        drain_pending_releases()
        run = _MapRun(len(tasks))
        # Encoded before any record is registered: a payload that cannot
        # travel raises here and leaves nothing pending.
        records = []
        for index, task in enumerate(tasks):
            message = {"type": "task", "stage": task.stage, "kind": task.kind,
                       "payload": task.payload, "context_id": task.context.context_id,
                       "version": task.context.version}  # fmt: skip
            records.append(_TaskRecord(next(self._task_ids), index, message, run))
        with self._cond:
            if self._closed:
                raise _crash_error("worker cluster is shut down")
            for record in records:
                self._pending[record.task_id] = record
                self._assign_locked(record)
        for record in records:
            link = record.link
            if link is None:
                continue  # no worker was available; resolved below
            try:
                link.send_frame(record.frame)
            except (OSError, ProtocolError):
                self._handle_link_loss(link)
        with self._cond:
            # Tasks that never found a worker fail the run up front.
            if any(r.link is None for r in records) and run.failure is None:
                self._fail_run_locked(
                    run, _crash_error("no remote workers are connected")
                )
            while run.remaining > 0 and run.failure is None:
                if self._closed:
                    self._fail_run_locked(
                        run, _crash_error("worker cluster shut down mid-map")
                    )
                    break
                self._cond.wait(timeout=0.5)
            if run.failure is not None:
                raise run.failure
            return [result for result in run.results]  # type: ignore[misc]

    def _assign_locked(self, record: _TaskRecord) -> Optional[_WorkerLink]:
        """Pick a live link round-robin; caller sends outside the lock."""
        links = list(self._links.values())
        if not links:
            record.link = None
            return None
        link = links[self._rr % len(links)]
        self._rr += 1
        record.link = link
        return link

    # -- per-link receive path ------------------------------------------
    def _recv_loop(self, link: _WorkerLink) -> None:
        try:
            serve(link.sock, TO_CONTROLLER, lambda message: self._receive(link, message))
        except (ProtocolError, OSError):
            pass
        finally:
            self._handle_link_loss(link)

    def _receive(self, link: _WorkerLink, message: Dict[str, Any]) -> None:
        """One ``result`` or ``error`` from ``link``: a task's value, or
        its deterministic failure, which fails its map and is never retried."""
        kind = message["type"]
        if kind == "hello":
            raise ProtocolError(f"a second hello from {link.worker_id}")
        if kind == "error":
            error = _error_from(message["error"])
        elif not 0 <= message["seconds"] < math.inf:
            raise ProtocolError(f"a result with seconds {message['seconds']!r}")
        with self._cond:
            record = self._pending.get(message["task_id"])
            if record is None:
                return  # stale: its run already failed
            if kind == "error":
                self._fail_run_locked(record.run, error)
                return
            if not record.fits(message["value"]):
                # Still pending and on this link: losing the link resubmits it.
                raise ProtocolError(f"a {record.kind} result that does not fit its task")
            del self._pending[record.task_id]
            run = record.run
            run.results[record.index] = (message["value"], message["seconds"], link.worker_id)
            run.remaining -= 1
            if run.remaining == 0:
                self._cond.notify_all()

    def _fail_run_locked(self, run: _MapRun, error: BaseException) -> None:
        if run.failure is None:
            run.failure = error
        for task_id in [t for t, r in self._pending.items() if r.run is run]:
            del self._pending[task_id]
        self._cond.notify_all()

    def _handle_link_loss(self, link: _WorkerLink) -> None:
        """A worker vanished: drop the link, resubmit its orphans."""
        resubmissions: List[Tuple[_WorkerLink, _TaskRecord]] = []
        with self._cond:
            if self._links.get(link.worker_id) is not link:
                return
            del self._links[link.worker_id]
            orphans = [record for record in self._pending.values() if record.link is link]
            closed = self._closed
            if not closed:
                self.worker_losses += 1
            for record in orphans:
                if record.task_id not in self._pending:
                    continue
                run = record.run
                record.retries += 1
                if record.retries > self.max_task_retries:
                    self._pending.pop(record.task_id, None)
                    self._fail_run_locked(
                        run,
                        _crash_error(
                            f"task resubmitted {self.max_task_retries} times across "
                            f"lost workers; giving up"
                        ),
                    )
                    continue
                target = self._assign_locked(record)
                if target is None:
                    self._pending.pop(record.task_id, None)
                    self._fail_run_locked(
                        run,
                        _crash_error(
                            "lost the last remote worker with tasks in flight"
                        ),
                    )
                    continue
                resubmissions.append((target, record))
            self._cond.notify_all()
        try:
            link.sock.close()
        except OSError:
            pass
        # A worker told to shut down closes its end on the way out: that
        # EOF is no loss, and ``shutdown`` joins the process before it
        # reaps whatever is left.
        if link.process is not None and not closed:
            self._reap(link.process)
        for target, record in resubmissions:
            try:
                target.send_frame(record.frame)
            except (OSError, ProtocolError):
                self._handle_link_loss(target)

    # -- shutdown -------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        drain_pending_releases()
        with self._cond:
            if self._closed:
                return
            self._closed = True
            links = list(self._links.values())
            self._cond.notify_all()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for link in links:
            try:
                link.send({"type": "shutdown"})
            except (OSError, ProtocolError):
                pass
        if wait:
            for thread in self._local_threads:
                thread.join(timeout=5.0)
            for link in links:
                if link.process is not None:
                    link.process.join(timeout=5.0)
        for link in links:
            try:
                link.sock.close()
            except OSError:
                pass
            if link.process is not None:
                self._reap(link.process)


__all__ = ["WorkerHost"]
