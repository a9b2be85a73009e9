"""The remote worker substrate: one controller, two kinds of link.

This is the paper's deployment shape: one controller owns the policy and
the search loop, and ``N`` workers score shards against supernets they
rehydrated once from a serialized spec.  Both remote backends configure
the one :class:`_Cluster` controller, and every worker is a
:class:`WorkerHost` running the same ``hello`` → ``context``/``task``/
``result`` loop over a connected socket:

* ``processes`` (:class:`ProcessPoolBackend`) — the controller *spawns*
  ``workers`` processes on this machine, each joined over an anonymous
  ``socket.socketpair()``; no port is opened, and a lost worker is
  respawned before the next map.
* ``distributed`` (:class:`DistributedBackend`) — the controller binds a
  TCP listener and accepts workers whenever they arrive (``repro worker
  --connect host:port``).  By default it also spawns ``workers``
  loopback worker threads running the exact code path an external worker
  runs, so ``--backend distributed`` works out of the box on one machine
  and the wire protocol is exercised end-to-end even in tier-1 CI.

Weights have two *carriers*, selected by the kind of link.  A spawned
worker shares this machine's memory: its ``context`` message names the
:class:`~.shm.SharedWeights` segment and a task stamped with a newer
version triggers the seqlock copy-in.  A worker that dialled in over TCP
gets the same versions as a *push*: every ``optimizer_step()`` republish
broadcasts a versioned weight message, and a link is primed with every
registered context before it can be assigned work (:meth:`_Cluster._admit`),
so a worker never has to ask.  The determinism contract is
unchanged — per-task ``SeedSequence`` streams ride inside the pickled
payloads and the gather is order-preserving — so a remote search is
bit-identical to a serial one.

Fault tolerance is *per-task* resubmission: a lost worker (connection
drop, SIGKILL) orphans only the tasks assigned to it, which are re-sent
to surviving workers with a bounded per-task retry budget; exhaustion
(or losing every worker) raises the retryable
:class:`~repro.runtime.errors.WorkerCrashError`, handing the step to the
supervisor's checkpoint/restart path.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import socket
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from .backends import (
    ExecutionBackend,
    _discard_shared_pool,
    _shared_pool,
    default_worker_count,
    process_start_method,
)
from ...service.protocol import ProtocolError
from .shm import SharedGradients, SharedWeights, WeightLayout, weight_layout
from .transport import (
    DEFAULT_BIND,
    TRANSPORT_VERSION,
    format_address,
    parse_address,
    recv_message,
    send_message,
)
from .worker import (
    RemoteContextRef,
    RemoteShardContext,
    build_remote_context,
    build_supernet_from_spec,
    drain_pending_releases,
    mark_worker_process,
    run_stage_task,
)

T = TypeVar("T")
R = TypeVar("R")

#: Where the controller listens when a search does not say —
#: loopback/ephemeral unless this env var names a ``host:port``.
DIST_BIND_ENV_VAR = "REPRO_DIST_BIND"


def _crash_error(message: str) -> Exception:
    from ...runtime.errors import WorkerCrashError

    return WorkerCrashError(message)


def _snapshot_weights(arrays: Sequence[np.ndarray]) -> bytes:
    """The concatenated float64 bytes a weight broadcast carries."""
    return b"".join(
        np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays
    )


def _picklable_error(error: BaseException) -> BaseException:
    """``error`` if it survives pickling, else a faithful stand-in.

    An unpicklable exception must not kill the worker's send path — that
    would surface as a *host loss* and burn retries on a deterministic
    failure the controller should just propagate.
    """
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _HostContext:
    """One rehydrated supernet plus its last-applied weight version.
    Weights arrive as pushed bytes (:meth:`apply`) or, given the name of
    the controller's shared ``segment``, by :meth:`copy_in`; ``gradients``
    is its gradient image's ``(slots, name)``.  Parameters are walked once."""

    def __init__(
        self, supernet: Any, layout: WeightLayout, segment: Optional[str] = None, gradients=None
    ):
        self.supernet = supernet
        self.params = list(supernet.parameters())
        self.param_arrays = [p.data for p in self.params]
        self.layout = [
            (tuple(shape), int(offset), int(size)) for shape, offset, size in layout
        ]
        shapes = [tuple(a.shape) for a in self.param_arrays]
        expected = [shape for shape, _, _ in self.layout]
        if shapes != expected:
            raise RuntimeError(
                f"rehydrated supernet parameters {shapes} do not match the "
                f"published layout {expected}"
            )
        self.shared = SharedWeights.attach(segment, self.layout) if segment else None
        self.gradients = SharedGradients(self.layout, *gradients) if gradients else None
        self.applied_version = 0

    def apply(self, version: int, data: bytes) -> None:
        if version <= self.applied_version:
            return
        flat = np.frombuffer(data, dtype=np.float64)
        for array, (shape, offset, size) in zip(self.param_arrays, self.layout):
            np.copyto(array, flat[offset : offset + size].reshape(shape))
        self.applied_version = int(version)

    def copy_in(self) -> None:
        """Refresh from the segment (torn-read-safe, see :mod:`.shm`)."""
        self.applied_version = self.shared.copy_into(self.param_arrays)

    def close(self) -> None:
        for segment in (self.shared, self.gradients):
            if segment is not None:
                segment.release()


class WorkerHost:
    """One worker's connection to a controller: the ``repro worker`` loop.

    Single-threaded by design: one socket, one message at a time, and
    after its ``hello`` it only answers (one ``result`` or ``error`` per
    task).  The same loop runs as an external process (``repro worker``),
    as the cluster's loopback worker threads and — handed its connected
    socket instead of an address to dial — as a spawned ``processes``
    worker: one code path, tested each way.
    """

    def __init__(
        self,
        address: Union[str, Tuple[str, int], socket.socket],
        worker_id: Optional[str] = None,
        max_tasks: Optional[int] = None,
        connect_timeout: float = 10.0,
    ):
        if isinstance(address, str):
            address = parse_address(address)
        if not isinstance(address, socket.socket):
            address = (address[0], int(address[1]))
        self.address = address
        self.worker_id = worker_id or f"{socket.gethostname()}/{os.getpid()}"
        #: execute-and-reply budget; ``None`` serves until shutdown/EOF.
        #: A bounded worker exits *abruptly* once spent — no goodbye —
        #: which is exactly a host loss from the controller's viewpoint,
        #: giving tests a deterministic kill-mid-shard lever.
        self.max_tasks = max_tasks
        self.connect_timeout = connect_timeout
        self.executed = 0
        self._contexts: Dict[str, Union[_HostContext, Exception]] = {}
        self._sock: Optional[socket.socket] = None

    # -- lifecycle ------------------------------------------------------
    def run(self) -> int:
        """Serve until shutdown, EOF, or the ``max_tasks`` budget is
        spent; returns the number of tasks executed."""
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
                {
                    "type": "hello",
                    "transport": TRANSPORT_VERSION,
                    "worker_id": self.worker_id,
                    "host": socket.gethostname(),
                    "pid": os.getpid(),
                },
            )
            self._serve()
        finally:
            self._sock = None
            sock.close()
        return self.executed

    def _serve(self) -> None:
        while True:
            try:
                message = recv_message(self._sock)
            except (ProtocolError, OSError):
                return
            kind = "shutdown" if message is None else message["type"]  # EOF
            if kind == "shutdown":
                return
            if kind in ("context", "weights", "release"):
                self._apply_control(message)
            elif kind in ("task", "call"):
                if not self._handle_work(message):
                    return
                if self.max_tasks is not None and self.executed >= self.max_tasks:
                    # Budget spent: vanish mid-conversation, like a
                    # SIGKILLed host would.
                    return
            # unknown types are ignored: forward-compatible controllers

    # -- control messages ----------------------------------------------
    def _apply_control(self, message: Dict[str, Any]) -> None:
        kind = message["type"]
        context_id = message["context_id"]
        if kind == "release":
            released = self._contexts.pop(context_id, None)
            if isinstance(released, _HostContext):
                released.close()
            return
        if kind == "weights":
            ctx = self._contexts.get(context_id)
            if isinstance(ctx, _HostContext):
                ctx.apply(message["version"], message["data"])
            return
        # context: build the supernet once; a failure is remembered and
        # reported per-task rather than killing the worker.
        try:
            supernet = build_supernet_from_spec(pickle.loads(message["spec"]))
            ctx: Union[_HostContext, Exception] = _HostContext(
                supernet, message["layout"], message.get("segment"), message.get("gradients")
            )
            if message.get("weights") is not None:
                ctx.apply(message["version"], message["weights"])
        except Exception as error:
            ctx = error
        self._contexts[context_id] = ctx

    # -- work messages --------------------------------------------------
    def _context_for_task(self, ref: RemoteContextRef) -> _HostContext:
        """The context ``ref`` names, at its version or newer.  A link
        is primed before it is assigned work and frames arrive in order,
        so a task naming what never came (a released context, a
        controller out of order) fails as a task: a worker never asks."""
        ctx = self._contexts.get(ref.context_id)
        if ctx is None:
            raise RuntimeError(
                f"worker {self.worker_id} holds no context {ref.context_id!r} "
                f"(released, or never sent on this link)"
            )
        if isinstance(ctx, Exception):
            raise ctx
        if ctx.applied_version < ref.version:
            if ctx.shared is None:
                raise RuntimeError(
                    f"task stamped weight version {ref.version} of context "
                    f"{ref.context_id!r} reached worker {self.worker_id} "
                    f"before the push: it holds version {ctx.applied_version}"
                )
            ctx.copy_in()
        return ctx

    def _handle_work(self, message: Dict[str, Any]) -> bool:
        """Execute one task/call and reply; ``False`` if the link died."""
        try:
            if message["type"] == "call":  # its caller reads no timing
                value, seconds = message["fn"](message["item"]), 0.0
            else:
                value, seconds = run_stage_task(message["task"], self._context_for_task)
            reply = {"type": "result", "value": value, "seconds": seconds}
        except Exception as error:  # deterministic task failure: report it
            reply = {"type": "error", "error": _picklable_error(error)}
        self.executed += 1
        return self._send({**reply, "task_id": message["task_id"]})

    def _send(self, message: Dict[str, Any]) -> bool:
        try:
            send_message(self._sock, message)
            return True
        except (OSError, ProtocolError):
            return False
        except Exception as error:
            # A result that cannot pickle must come back as a typed task
            # error, not a dead worker.
            error = _picklable_error(error)
            try:
                send_message(
                    self._sock,
                    {"type": "error", "task_id": message.get("task_id"), "error": error},
                )
                return True
            except Exception:
                return False


def run_worker(
    address: Union[str, Tuple[str, int]],
    worker_id: Optional[str] = None,
    max_tasks: Optional[int] = None,
    connect_timeout: float = 10.0,
) -> int:
    """Connect to a controller and serve stage tasks until told to stop.

    The entry point behind ``repro worker --connect host:port`` and the
    cluster's loopback worker threads; returns the task count executed.
    """
    host = WorkerHost(
        address,
        worker_id=worker_id,
        max_tasks=max_tasks,
        connect_timeout=connect_timeout,
    )
    return host.run()


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
    mark_worker_process()
    for controller_end in controller_ends:
        controller_end.close()
    for cluster in list(_LIVE_CLUSTERS):
        cluster._close_sockets()
    try:
        run_worker(sock, worker_id=worker_id)
    except Exception:
        pass  # loss is observed (and accounted) controller-side


# ----------------------------------------------------------------------
# Controller side
# ----------------------------------------------------------------------
class _TaskRecord:
    """One submitted task: its wire message, result slot, retry count."""

    __slots__ = ("task_id", "index", "message", "retries", "link", "run")

    def __init__(self, task_id: int, index: int, message: Dict[str, Any], run: "_MapRun"):
        self.task_id = task_id
        self.index = index
        self.message = message
        self.retries = 0
        self.link: Optional["_WorkerLink"] = None
        self.run = run


class _MapRun:
    """Controller-side state of one in-flight order-preserving map."""

    __slots__ = ("results", "remaining", "failure", "max_retries")

    def __init__(self, count: int, max_retries: int):
        self.results: List[Optional[Tuple[Any, float, Union[int, str]]]] = [None] * count
        self.remaining = count
        self.failure: Optional[BaseException] = None
        self.max_retries = max_retries


class _WorkerLink:
    """One connected worker: socket, send lock, outstanding tasks.

    ``process`` is the worker's handle when the controller spawned it
    (the link is a socketpair, the worker shares this machine's memory),
    ``None`` when it dialled in over TCP.
    """

    def __init__(
        self, sock: socket.socket, worker_id: str, host: str, pid: int, process: Any
    ):
        self.sock = sock
        self.worker_id = worker_id
        self.host = host
        self.pid = pid
        self.process = process
        self.alive = True
        self.outstanding: Dict[int, _TaskRecord] = {}
        #: orders the frames on this link; may be taken before the
        #: cluster's ``_cond``, never while holding it
        self._send_lock = threading.Lock()

    def send(self, message: Dict[str, Any]) -> None:
        with self._send_lock:
            send_message(self.sock, message)


class _Cluster:
    """Worker links + context state, shared across backends.

    Registered in the executor-pool registry under the owning backend's
    configuration key and duck-types ``shutdown(wait=...)``, so
    ``shutdown_pools()`` (and interpreter exit) reaps it like any
    executor.  One cluster serves every search in the process that picks
    the same key — the point: tests and sweeps run hundreds of searches,
    and workers rehydrate supernets per *context*, not per search
    object, so connection churn is zero.

    With a ``start_method`` it spawns its ``workers`` as processes over
    socketpairs and never listens; without one it binds ``bind`` and
    admits whoever dials in (``spawn_local``: its own loopback threads).
    """

    def __init__(
        self,
        workers: int,
        bind: str = DEFAULT_BIND,
        spawn_local: bool = True,
        start_method: Optional[str] = None,
    ):
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
        self._start_method = start_method
        self._spawn_ids = itertools.count()
        self._listener: Optional[socket.socket] = None
        self.address: Optional[Tuple[str, int]] = None
        self._local_threads: List[threading.Thread] = []
        _LIVE_CLUSTERS.add(self)
        if start_method is not None:
            self._fill_workers()
            return
        host, port = parse_address(bind)
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-dist-accept", daemon=True
        )
        self._accept_thread.start()
        if spawn_local:
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
        if self._start_method is None:
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
        process = multiprocessing.get_context(self._start_method).Process(
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
            run_worker(self.address, worker_id=worker_id)
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
            hello = recv_message(conn)
            if (
                hello is None
                or hello.get("type") != "hello"
                or hello.get("transport") != TRANSPORT_VERSION
            ):
                self._reject(conn, process)
                return
            conn.settimeout(None)
            if conn.family != socket.AF_UNIX:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except (ProtocolError, OSError):
            self._reject(conn, process)
            return
        link = _WorkerLink(
            conn,
            str(hello.get("worker_id") or "unknown/0"),
            str(hello.get("host") or "unknown"),
            int(hello.get("pid") or 0),
            process,
        )
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
    # and the carriers — ``segment`` names the shared weights segment and
    # ``gradients`` is the gradient image's ``(slots, name)`` when this
    # cluster spawned its workers (they share its memory), ``weights``
    # holds the current bytes when workers dial in over TCP.
    def _pushed_weights(self, arrays: Sequence[np.ndarray]) -> Optional[bytes]:
        """A weight version as a TCP worker needs it (``None`` when none
        can exist: nobody dials into a cluster that does not listen)."""
        return _snapshot_weights(arrays) if self._listener is not None else None

    def register_context(
        self,
        context_id: str,
        spec: bytes,
        version: int,
        segment: Optional[str],
        arrays: Sequence[np.ndarray],
        gradients: Optional[Tuple[int, str]] = None,
    ) -> None:
        drain_pending_releases()
        state = {
            "type": "context",
            "context_id": context_id,
            "spec": spec,
            "layout": tuple(weight_layout(arrays)),
            "version": int(version),
            "segment": segment,
            "gradients": gradients,
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
        # Spawned workers copy in from the segment when a task's version
        # stamp says so; only dialled-in ones are pushed to.
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
    def run_map(
        self, messages: Sequence[Dict[str, Any]], max_retries: int
    ) -> List[Tuple[Any, float, Union[int, str]]]:
        """Fan ``messages`` out, gather ``(value, seconds, worker)``
        in submission order; resubmit orphans of lost workers."""
        drain_pending_releases()
        run = _MapRun(len(messages), max_retries)
        records: List[_TaskRecord] = []
        with self._cond:
            if self._closed:
                raise _crash_error("worker cluster is shut down")
            for index, message in enumerate(messages):
                task_id = next(self._task_ids)
                message = dict(message)
                message["task_id"] = task_id
                record = _TaskRecord(task_id, index, message, run)
                records.append(record)
                self._pending[task_id] = record
                self._assign_locked(record)
        for record in records:
            link = record.link
            if link is None:
                continue  # no worker was available; resolved below
            try:
                link.send(record.message)
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
        links = [link for link in self._links.values() if link.alive]
        if not links:
            record.link = None
            return None
        link = links[self._rr % len(links)]
        self._rr += 1
        record.link = link
        link.outstanding[record.task_id] = record
        return link

    # -- per-link receive path ------------------------------------------
    def _recv_loop(self, link: _WorkerLink) -> None:
        try:
            while True:
                message = recv_message(link.sock)
                if message is None:
                    break
                kind = message["type"]
                if kind == "result":
                    self._complete(
                        link,
                        message["task_id"],
                        message.get("value"),
                        float(message.get("seconds", 0.0)),
                    )
                elif kind == "error":
                    self._fail_task(link, message["task_id"], message["error"])
        except (ProtocolError, OSError):
            pass
        finally:
            self._handle_link_loss(link)

    def _complete(
        self, link: _WorkerLink, task_id: int, value: Any, seconds: float
    ) -> None:
        with self._cond:
            record = self._pending.pop(task_id, None)
            link.outstanding.pop(task_id, None)
            if record is None:
                return  # stale: its run already failed
            run = record.run
            # Spawned workers are labelled by pid, dialled-in ones by
            # their host-qualified id (what ``span.worker`` aggregates on).
            worker = link.pid if link.process is not None else link.worker_id
            run.results[record.index] = (value, seconds, worker)
            run.remaining -= 1
            if run.remaining == 0:
                self._cond.notify_all()

    def _fail_task(self, link: _WorkerLink, task_id: int, error: BaseException) -> None:
        """A task raised deterministically: propagate, never retry."""
        with self._cond:
            record = self._pending.pop(task_id, None)
            link.outstanding.pop(task_id, None)
            if record is None:
                return
            self._fail_run_locked(record.run, error)

    def _fail_run_locked(self, run: _MapRun, error: BaseException) -> None:
        if run.failure is None:
            run.failure = error
        for task_id in [t for t, r in self._pending.items() if r.run is run]:
            record = self._pending.pop(task_id)
            if record.link is not None:
                record.link.outstanding.pop(task_id, None)
        self._cond.notify_all()

    def _handle_link_loss(self, link: _WorkerLink) -> None:
        """A worker vanished: drop the link, resubmit its orphans."""
        resubmissions: List[Tuple[_WorkerLink, _TaskRecord]] = []
        with self._cond:
            if not link.alive:
                return
            link.alive = False
            self._links.pop(link.worker_id, None)
            orphans = list(link.outstanding.values())
            link.outstanding.clear()
            if not self._closed:
                self.worker_losses += 1
            for record in orphans:
                if record.task_id not in self._pending:
                    continue
                run = record.run
                record.retries += 1
                if record.retries > run.max_retries:
                    self._pending.pop(record.task_id, None)
                    self._fail_run_locked(
                        run,
                        _crash_error(
                            f"task resubmitted {run.max_retries} times across "
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
        if link.process is not None:
            self._reap(link.process)
        for target, record in resubmissions:
            try:
                target.send(record.message)
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


# ----------------------------------------------------------------------
# The backends
# ----------------------------------------------------------------------
def _can_ship(fn: Callable, items: Sequence) -> bool:
    """Whether an opaque ``fn`` and a representative item pickle."""
    try:
        pickle.dumps(fn)
        if items:
            pickle.dumps(items[0])
        return True
    except Exception:
        return False


class _ClusterBackend(ExecutionBackend):
    """What ``processes`` and ``distributed`` share: everything but the
    cluster's configuration (``_cluster_key`` / ``_new_cluster()``).

    * **tasks are data, not closures** — the engine sends
      :class:`~.worker.StageTask` payloads that a worker executes
      against a supernet it rehydrated once (see
      :meth:`register_context`), so per-task pickles carry batch arrays
      only.  Whether to send them is the engine's decision
      (:meth:`SearchEngine._remote_active`): a stage-task map ships;
    * **opaque functions run locally when they must** — any other
      ``fn`` that does not pickle, has one item or nobody linked to run
      it takes the in-process serial loop, which is always correct;
    * **worker loss is survivable** — see the module docstring.  Tasks
      are pure by the determinism contract, so resubmission is
      idempotent and the retried results are bit-identical.
    """

    remote = True

    #: per-task resubmissions tolerated before the map gives up
    max_task_retries = 2
    #: how long the first ask for a worker waits for one to dial in
    worker_timeout = 30.0

    def __init__(self, workers: Optional[int], seed: int, shared: bool):
        super().__init__(
            seed=seed,
            workers=workers if workers is not None else default_worker_count(),
        )
        self._shared = shared
        self._active_cluster: Optional[_Cluster] = None
        self._losses_before = 0
        self._context: Optional[RemoteShardContext] = None
        self._waited = False

    # -- cluster lifecycle ----------------------------------------------
    def _cluster(self) -> _Cluster:
        cluster = self._active_cluster
        if cluster is not None and not cluster._closed:
            return cluster
        if self._shared:
            cluster = _shared_pool(self._cluster_key, self._new_cluster)  # type: ignore[arg-type]
            if cluster._closed:
                # A shutdown_pools() happened since; replace the corpse.
                _discard_shared_pool(self._cluster_key, cluster)  # type: ignore[arg-type]
                cluster = _shared_pool(self._cluster_key, self._new_cluster)  # type: ignore[arg-type]
        else:
            cluster = self._new_cluster()
        self._active_cluster = cluster
        self._losses_before = cluster.worker_losses
        return cluster

    @property
    def worker_losses(self) -> int:
        """Workers lost since this backend first touched its cluster;
        the engine mirrors deltas into the ``supervisor.worker_losses``
        churn counter."""
        if self._active_cluster is None:
            return 0
        return self._active_cluster.worker_losses - self._losses_before

    @property
    def host_count(self) -> int:
        """Currently connected workers (the ``engine.hosts`` gauge)."""
        if self._active_cluster is None:
            return 0
        return self._active_cluster.host_count

    # -- supernet context ----------------------------------------------
    def register_context(
        self, supernet: Any, gradient_slots: int = 0
    ) -> Optional[RemoteShardContext]:
        """Publish ``supernet`` to the cluster's workers.

        Returns the :class:`~.worker.RemoteShardContext` handle the
        engine publishes and stamps tasks through (``gradient_slots`` is
        the most training tasks it will ship at once), or ``None`` — no
        fan-out of this search will ship — when the supernet cannot
        travel (:func:`~.worker.build_remote_context`) or the pool has
        a single worker, where remote execution buys nothing.
        """
        if self.workers <= 1:
            return None
        if self._context is not None:
            self._context.release()
        self._context = build_remote_context(supernet, self._cluster, gradient_slots)
        return self._context

    # -- execution ------------------------------------------------------
    def wait_for_workers(
        self, count: Optional[int] = None, timeout: Optional[float] = None
    ) -> int:
        """Block until ``count`` (default: all) workers are linked;
        returns how many are (a spawning cluster tops itself up first).

        Without a ``timeout`` the backend spends its ``worker_timeout``
        once and only looks from then on: a search bound for external
        workers that nobody dialled into stalls one time, not on every
        map, and goes remote as soon as a worker links.
        """
        if timeout is None:
            timeout = 0.0 if self._waited else self.worker_timeout
            self._waited = True
        return self._cluster().wait_for_workers(
            count if count is not None else self.workers, timeout
        )

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        if fn is run_stage_task:
            # Placed by the engine: (value, seconds, worker) per task,
            # worker a spawned one's pid or a dialled-in one's id.
            messages = [{"type": "task", "task": task} for task in items]
            return self._cluster().run_map(messages, self.max_task_retries)  # type: ignore[return-value]
        if (
            len(items) <= 1
            or self.workers == 1
            or not _can_ship(fn, items)
            or self.wait_for_workers(1) < 1
        ):
            return [fn(item) for item in items]
        messages = [{"type": "call", "fn": fn, "item": item} for item in items]
        results = self._cluster().run_map(messages, self.max_task_retries)
        return [value for value, _, _ in results]

    # -- checkpoint state ----------------------------------------------
    def state_dict(self) -> dict:
        state = super().state_dict()
        state["weights_version"] = (
            int(self._context.version) if self._context is not None else 0
        )
        return state

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        super().load_state_dict(state)
        if self._context is not None:
            # Republish past the checkpointed version: the restored
            # parameter values reach the workers, and surviving workers
            # whose applied version predates the crash still refresh.
            self._context.publish(int(state.get("weights_version", 0)) + 1)

    def close(self) -> None:
        if self._context is not None:
            self._context.release()
            self._context = None
        if self._active_cluster is not None and not self._shared:
            self._active_cluster.shutdown(wait=True)
        self._active_cluster = None


class ProcessPoolBackend(_ClusterBackend):
    """Fan picklable tasks out across worker *processes* on this machine.

    This is the GIL-free leg: CPU-bound scoring shards scale with the
    machine's cores.  The cluster spawns the workers itself (``fork``
    by default, see :func:`~.backends.process_start_method`), talks to
    each over a socketpair — no port is opened — and replaces a lost one
    before the next map.  **Weights travel through shared memory**: one
    versioned segment the engine republishes after each cross-shard
    weight update; workers copy-in at most once per version.
    """

    name = "processes"

    def __init__(
        self,
        workers: Optional[int] = None,
        seed: int = 0,
        shared: bool = True,
        start_method: Optional[str] = None,
    ):
        super().__init__(workers, seed, shared)
        self._method = start_method or process_start_method()
        self._cluster_key = ("processes", self.workers, self._method)

    def _new_cluster(self) -> _Cluster:
        return _Cluster(self.workers, start_method=self._method)


class DistributedBackend(_ClusterBackend):
    """Fan picklable tasks out across worker *hosts* over TCP.

    The cross-host leg of the ladder: same determinism contract, same
    engine surface as :class:`ProcessPoolBackend`, different failure
    domain.  Key differences from the process pool:

    * **weights are pushed, not shared** — ``publish()`` broadcasts a
      versioned weight message ahead of the tasks stamped with it, and a
      late joiner is primed with the current one before it is assignable;
    * **membership is open** — workers may join at any time (``repro
      worker --connect``); by default the cluster also spawns loopback
      worker threads so the backend works standalone.
    """

    name = "distributed"

    def __init__(
        self,
        workers: Optional[int] = None,
        seed: int = 0,
        bind: Optional[str] = None,
        spawn_local: Optional[bool] = None,
        shared: bool = True,
        worker_timeout: float = 30.0,
    ):
        super().__init__(workers, seed, shared)
        env_bind = os.environ.get(DIST_BIND_ENV_VAR)
        self._bind = bind if bind is not None else (env_bind or DEFAULT_BIND)
        # An explicit bind (flag or env) implies external workers will
        # connect; the loopback complement is for the standalone case.
        if spawn_local is None:
            spawn_local = bind is None and not env_bind
        self._spawn_local = spawn_local
        self._cluster_key = ("distributed", self.workers, self._bind, spawn_local)
        self.worker_timeout = worker_timeout

    def _new_cluster(self) -> _Cluster:
        return _Cluster(self.workers, bind=self._bind, spawn_local=self._spawn_local)

    @property
    def address(self) -> str:
        """``host:port`` external workers connect to (binds lazily)."""
        return format_address(self._cluster().address)


__all__ = [
    "DIST_BIND_ENV_VAR",
    "DistributedBackend",
    "ProcessPoolBackend",
    "WorkerHost",
    "run_worker",
]
