"""The ``repro serve`` daemon: a Unix-socket front end over the scheduler.

One long-lived process per spool directory.  Startup takes the
spool's lock (an exclusive ``flock`` on ``<spool>/daemon.lock``, held
for the daemon's life), recovers the spool (re-queueing jobs a dead
daemon left ``running``), starts the scheduler, binds
``<spool>/daemon.sock`` (or ``--socket``), and serves one
newline-delimited JSON request per connection on a small accept loop —
a deliberately boring server: no event loop, no dependencies, each
connection handled on its own short-lived thread.

Shutdown is always a *drain*: whether triggered by the ``drain`` verb
or by SIGTERM/SIGINT (via :class:`~repro.runtime.signals
.GracefulShutdown`), the daemon stops admitting, parks running jobs at
their next step boundary with a final checkpoint (they return to
``queued``), seals its telemetry, removes the socket, and exits.  A
SIGKILL skips all of that by definition — which is fine: the spool's
atomic job records and each job's checkpoint store are the durability
story, and the next start resumes every interrupted job
bit-identically.  Each job runs serially in a process of its own, which
reads EOF on its link when the daemon dies and exits at once, so it
never writes under a restarted daemon's resumed job.  A daemon started
with a remote ``$REPRO_BACKEND`` refuses to serve.
"""

from __future__ import annotations

import fcntl
import os
import pathlib
import select
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Dict, Optional, Union

from ..runtime.atomic import atomic_write_json
from ..runtime.signals import GracefulShutdown
from .jobs import DAEMON_SOCKETS, SOCKETS_LOCK, load_results
from .protocol import (
    ProtocolError,
    ResultsNotReadyError,
    ServiceError,
    JobStateError,
    decode_request,
    error_response,
    ok_response,
    read_line,
)
from .queue import JobQueue, TERMINAL_STATES
from .scheduler import JobScheduler, SchedulerConfig

PathLike = Union[str, pathlib.Path]

SOCKET_NAME = "daemon.sock"
LOCK_NAME = "daemon.lock"
DAEMON_INFO_NAME = "daemon.json"
TELEMETRY_DIRNAME = "telemetry"

#: Largest request line the daemon will read (a submit is < 1 KiB).
MAX_REQUEST_BYTES = 1 << 20


@dataclass
class DaemonConfig:
    """Everything ``repro serve`` can set."""

    spool: PathLike
    socket_path: Optional[PathLike] = None
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: accept-loop wake-up; bounds signal-to-drain latency
    accept_timeout_s: float = 0.2

    def resolved_socket(self) -> pathlib.Path:
        if self.socket_path is not None:
            return pathlib.Path(self.socket_path)
        return pathlib.Path(self.spool) / SOCKET_NAME


class ServiceDaemon:
    """Accept loop + verb dispatch over a :class:`JobScheduler`."""

    def __init__(self, config: DaemonConfig):
        self.config = config
        self.spool = pathlib.Path(config.spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        from ..telemetry import Telemetry

        #: the daemon's own stream (service.* metrics, lifecycle events)
        #: — distinct from the per-job streams under ``runs/<job>/``
        self.telemetry = Telemetry(self.spool / TELEMETRY_DIRNAME)
        self.queue = JobQueue(self.spool)
        self.scheduler = JobScheduler(
            self.queue, config.scheduler, telemetry=self.telemetry
        )
        self.socket_path = config.resolved_socket()
        self._listener: Optional[socket.socket] = None
        self._shutdown = GracefulShutdown()
        self._started_monotonic: Optional[float] = None

    # -- spool lock and socket lifecycle -------------------------------
    def _lock_spool(self) -> IO[bytes]:
        """``<spool>/daemon.lock``, held exclusively until closed: one
        daemon per spool.  Close-on-exec, as Python opens every file; a
        job process closes it with the daemon's sockets."""
        with SOCKETS_LOCK:  # no job process forks with it unregistered
            lock = open(self.spool / LOCK_NAME, "ab")
            DAEMON_SOCKETS.add(lock)
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            lock.close()
            raise ServiceError(f"another daemon is already serving {self.spool}") from None
        return lock

    def _bind(self) -> socket.socket:
        path = self.socket_path
        path.unlink(missing_ok=True)  # under the spool lock, a socket file is a dead daemon's
        path.parent.mkdir(parents=True, exist_ok=True)
        with SOCKETS_LOCK:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            DAEMON_SOCKETS.add(listener)
        listener.bind(str(path))
        listener.listen(16)
        listener.setblocking(False)  # ``_accept`` waits in ``select``
        return listener

    # -- main loop ------------------------------------------------------
    def serve(self, on_listening: Optional[Callable[[], None]] = None) -> Dict[str, Any]:
        """Run until drained; returns the final stats summary.

        Installs SIGTERM/SIGINT handlers when called from the main
        thread; a background-thread daemon (tests) is drained via the
        ``drain`` verb or :meth:`request_drain`.  ``on_listening`` runs
        once the spool is locked and the socket bound (``repro serve``
        prints its banner there, so a refused daemon prints none).
        A remote ``$REPRO_BACKEND`` is refused before the spool is
        locked: every job computes serially in its own process.
        """
        from ..core.engine.backends import BACKEND_ENV_VAR, resolve_backend

        backend = resolve_backend()
        if backend.remote:
            raise ServiceError(
                f"${BACKEND_ENV_VAR}={backend.name} is refused: a daemon runs "
                "each job serially in a process of its own"
            )
        self._started_monotonic = time.monotonic()
        with self._shutdown, self._lock_spool():
            recovered = self.scheduler.start()
            self._listener = self._bind()
            if on_listening is not None:
                on_listening()
            atomic_write_json(
                self.spool / DAEMON_INFO_NAME,
                {
                    "pid": os.getpid(),
                    "socket": str(self.socket_path),
                    # Wall clock for humans; monotonic anchor for uptime
                    # math, so a clock step (NTP, suspend) cannot make
                    # pollers compute negative or inflated uptimes.
                    "started_at": time.time(),
                    "started_monotonic": self._started_monotonic,
                    "recovered_jobs": [r.job_id for r in recovered],
                },
                indent=2,
                sort_keys=True,
            )
            self.telemetry.event(
                "service.daemon_started",
                pid=os.getpid(),
                recovered=[r.job_id for r in recovered],
            )
            self.telemetry.flush()
            try:
                while not self._shutdown.requested:
                    try:
                        conn = self._accept()
                    except OSError:
                        break
                    if conn is None:
                        continue
                    threading.Thread(
                        target=self._serve_connection,
                        args=(conn,),
                        name="repro-service-conn",
                        daemon=True,
                    ).start()
            finally:
                summary = self._drain_and_close()
        return summary

    def _accept(self) -> Optional[socket.socket]:
        """The next connection, registered before a job process can fork
        with it (none within ``accept_timeout_s``: ``None``)."""
        ready, _, _ = select.select([self._listener], [], [], self.config.accept_timeout_s)
        if not ready:
            return None
        with SOCKETS_LOCK:
            try:
                conn, _addr = self._listener.accept()
            except BlockingIOError:
                return None  # the peer gave up before we took it
            DAEMON_SOCKETS.add(conn)
        return conn

    def request_drain(self) -> None:
        """Programmatic drain trigger (the ``drain`` verb, tests)."""
        self._shutdown.request()

    def _drain_and_close(self) -> Dict[str, Any]:
        interrupted = self.scheduler.drain()
        stats = self.scheduler.stats()
        stats["interrupted"] = interrupted
        self.telemetry.event("service.daemon_stopped", **stats)
        self.telemetry.close()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        try:
            self.socket_path.unlink()
        except OSError:
            pass
        return stats

    # -- per-connection handling ---------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        # The read sits *inside* the typed-error try: an oversized or
        # truncated request raises ProtocolError, which must reach the
        # client as a typed error response, not a bare connection drop.
        try:
            with conn:
                conn.settimeout(10.0)
                try:
                    line = read_line(conn, MAX_REQUEST_BYTES)
                    verb, args = decode_request(line)
                    data = self._dispatch(verb, args)
                except ServiceError as error:
                    conn.sendall(error_response(error))
                else:
                    conn.sendall(ok_response(data))
        except OSError:
            pass  # client went away mid-exchange; nothing to clean up

    # -- verbs ----------------------------------------------------------
    def _dispatch(self, verb: str, args: Dict[str, Any]) -> Any:
        if verb == "submit":
            tenant = args.get("tenant")
            if not tenant or not isinstance(tenant, str):
                raise ProtocolError("submit requires a non-empty 'tenant' string")
            record = self.scheduler.submit(tenant, args.get("spec") or {})
            return record.to_dict()
        if verb == "status":
            return self.queue.get(self._job_id(args)).to_dict()
        if verb == "list":
            states = args.get("states")
            return [
                r.to_dict()
                for r in self.queue.list(tenant=args.get("tenant"), states=states)
            ]
        if verb == "results":
            record = self.queue.get(self._job_id(args))
            if record.state == "failed":
                raise JobStateError(
                    f"{record.job_id} failed: {record.error or 'unknown error'}"
                )
            if record.state != "done":
                raise ResultsNotReadyError(
                    f"{record.job_id} is {record.state}; results exist once "
                    f"it reaches done"
                )
            payload = load_results(self.queue.run_dir(record.job_id))
            if payload is None:
                raise ResultsNotReadyError(
                    f"{record.job_id} is done but results.json is missing"
                )
            return payload
        if verb == "cancel":
            return self.scheduler.cancel(self._job_id(args)).to_dict()
        if verb == "drain":
            stats = self.scheduler.stats()
            stats["draining"] = True
            self.request_drain()
            return stats
        if verb == "ping":
            stats = self.scheduler.stats()
            stats.update(
                pid=os.getpid(),
                uptime_s=(
                    time.monotonic() - self._started_monotonic
                    if self._started_monotonic is not None
                    else 0.0
                ),
                spool=str(self.spool),
            )
            return stats
        raise ProtocolError(f"verb {verb!r} reached dispatch without a handler")

    @staticmethod
    def _job_id(args: Dict[str, Any]) -> str:
        job_id = args.get("job_id")
        if not job_id or not isinstance(job_id, str):
            raise ProtocolError("this verb requires a 'job_id' string")
        return job_id


__all__ = [
    "DaemonConfig",
    "ServiceDaemon",
    "SOCKET_NAME",
    "TERMINAL_STATES",
]
