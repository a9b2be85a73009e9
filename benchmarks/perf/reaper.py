"""Nothing a run started outlives the command.

The workloads stop what they start (pool, daemon), but the program also
starts processes the benchmark holds no handle on: creating a shared
memory segment launches ``multiprocessing``'s resource tracker, which
ends only *after* the process that launched it, so that process cannot
wait for it.  It is left to ``init``, and where ``init`` does not reap
(a bare container) it stays in the process table after the command has
returned.

So the command is two processes.  :func:`contain` forks: the child does
the run; the parent does nothing but adopt (as a *child subreaper*) every
process the run orphans, wait until the run and all of them have ended,
kill what has not after a grace period, and exit with the run's code.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time

from . import procstat

#: from ``<linux/prctl.h>``
PR_SET_CHILD_SUBREAPER = 36

#: how long what the run left behind gets to end by itself
LINGER_S = 10.0


def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process, not to init."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def kill_descendants() -> None:
    for pid in procstat.process_tree(os.getpid())[1:]:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # ended by itself in the meantime


def reap_all(linger_s: float) -> None:
    """Wait for every child there is; kill what is left after ``linger_s``."""
    deadline = time.monotonic() + linger_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # none left
        if pid == 0:  # some are still running
            if time.monotonic() > deadline:
                kill_descendants()
                deadline = float("inf")
            time.sleep(0.01)


def contain(linger_s: float = LINGER_S) -> None:
    """Fork; return in the child, which does the run.

    The parent never returns: it exits with the child's code once the
    child and everything it left behind have ended.  SIGTERM is passed
    on to the child, whose own handling then unwinds the run; Ctrl-C
    reaches the child by itself (same foreground process group).
    """
    become_subreaper()
    sys.stdout.flush()
    sys.stderr.flush()
    run = os.fork()
    if run == 0:
        return
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, lambda *_: os.kill(run, signal.SIGTERM))
    try:
        _, status = os.waitpid(run, 0)
        code = os.waitstatus_to_exitcode(status)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # the run's pid is free again
        reap_all(linger_s)
    sys.exit(code if code >= 0 else 128 - code)
