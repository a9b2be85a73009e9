"""Cooperative signal handling: turn SIGTERM/SIGINT into a stop flag.

A supervised run used to die mid-step when its process received
SIGTERM — half-scored shards, a stale newest snapshot, and a resume
that replays work the operator thought was done.  :class:`
GracefulShutdown` converts termination signals into a flag that
:func:`~repro.runtime.supervisor.run_with_checkpoints` polls at step
boundaries: the in-flight step finishes, a final checkpoint lands, and
the run exits cleanly via
:class:`~repro.runtime.errors.SearchInterrupted`.  The service daemon's
``drain`` verb is built on exactly this contract.

Signal handlers are process-global and only installable from the main
thread; constructed anywhere else the object degrades to an inert flag
that :meth:`request` can still set programmatically (which is how the
daemon wires its ``drain`` verb into the same code path).
"""

from __future__ import annotations

import signal
import threading
from types import FrameType
from typing import List, Optional, Tuple

#: Signals a graceful shutdown listens for.
DEFAULT_SIGNALS: Tuple[signal.Signals, ...] = (signal.SIGTERM, signal.SIGINT)


class GracefulShutdown:
    """Context manager exposing "has a shutdown been requested?".

    First signal: set the flag and keep running (the step loop notices
    at its next boundary).  The previous handlers are restored on exit
    — and also as soon as the first signal arrives, so a second signal
    behaves exactly as it would have without us (typically: kill the
    process).  An impatient operator's double Ctrl-C still works.
    """

    def __init__(self):
        self._event = threading.Event()
        self._previous: List[Tuple[signal.Signals, object]] = []
        self.received: Optional[int] = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "GracefulShutdown":
        if threading.current_thread() is threading.main_thread():
            for sig in DEFAULT_SIGNALS:
                self._previous.append((sig, signal.getsignal(sig)))
                signal.signal(sig, self._handle)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._restore()

    def _restore(self) -> None:
        for sig, handler in self._previous:
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):  # non-main thread / closed loop
                pass
        self._previous = []

    def _handle(self, signum: int, _frame: Optional[FrameType]) -> None:
        self.received = signum
        self._event.set()
        # From here on the operator escalates past us.
        self._restore()

    # ------------------------------------------------------------------
    def request(self) -> None:
        """Programmatic shutdown request (the daemon's ``drain`` verb)."""
        self._event.set()

    def should_stop(self) -> bool:
        """Poll-style accessor, shaped for ``run_with_checkpoints``."""
        return self._event.is_set()

    @property
    def requested(self) -> bool:
        return self._event.is_set()
