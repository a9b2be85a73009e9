"""Shared-memory weights for process workers.

The ``processes`` backend scores shards in worker *processes* the
controller spawned on this machine, so the supernet's weights must be
visible across address spaces.  Pickling the weights into every task
would ship the full parameter set per task per step; instead a
:mod:`multiprocessing.shared_memory` segment *is* the weights: the
controller's parameters are bound to per-parameter views of it
(:attr:`SharedWeights.views`), and so are those of every worker that
attaches (the ``context`` message names the segment, see
:mod:`.distributed`).  An optimizer step writes the segment in place
and no step copies weights either way.  This is the weight *carrier*
of controller-spawned links; workers reached over TCP get the same
versions as byte pushes instead.

The segment header carries a version *stamp*, not a copy protocol: the
writer makes it odd (:meth:`SharedWeights.begin_write`) before it
touches the weights and even again (:meth:`SharedWeights.publish`)
before the next fan-out, and a worker runs a task only when the
version equals the task's stamp, at its start and at its end.  A
mismatch is that task's error, never a wait.  (In the engine's step
loop the controller only writes between fan-outs, so a mismatch is a
correctness backstop, not a steady-state cost.)

The segment is one flat image of a ``(shape, offset, size)`` layout in
the parameters' one float dtype (float32 for the networks :mod:`repro.nn`
builds; :func:`~repro.nn.optim.weight_layout`, which Adam's arenas and
the TCP byte push share).  Workers only read it: a task is a forward
pass, and a training step's gradient is computed in the controller.

Every segment this process creates is tracked and unlinked at exit, so
crashed or interrupted runs do not leak ``/dev/shm`` entries.  A view
must not outlive its mapping (an access would be a wild pointer), so
whoever binds a parameter to one unbinds it before releasing.
"""

from __future__ import annotations

import atexit
import threading
from typing import Any, Dict, Optional, Sequence

import numpy as np

from ...nn.optim import WeightLayout, weight_dtype, weight_layout

try:  # pragma: no cover - exercised implicitly on every POSIX platform
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - platforms without shm support
    shared_memory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]

#: int64 header slots: ``[0]`` is the weight version; the rest are
#: reserved so the payload stays 64-byte aligned.
HEADER_SLOTS = 8
HEADER_BYTES = HEADER_SLOTS * 8


def shared_memory_available() -> bool:
    """Whether this platform offers ``multiprocessing.shared_memory``."""
    return shared_memory is not None


# ----------------------------------------------------------------------
# Creator-side segment tracking: unlink everything we created at exit.
# ----------------------------------------------------------------------
_CREATED: Dict[str, Any] = {}
_CREATED_LOCK = threading.Lock()


def _track(segment: Any) -> None:
    with _CREATED_LOCK:
        _CREATED[segment.name] = segment


def _untrack(name: str) -> None:
    with _CREATED_LOCK:
        _CREATED.pop(name, None)


def _cleanup_created_segments() -> None:
    """Unlink every still-live segment this process created.  The
    mappings stay open, held here until the process ends: a parameter
    may still be bound to one while a daemon thread runs."""
    with _CREATED_LOCK:
        segments = list(_CREATED.values())
    for segment in segments:
        try:
            segment.unlink()
        except Exception:  # pragma: no cover - best-effort exit cleanup
            pass


# Registered at import time, i.e. *before* the worker pools register
# their own atexit hooks in backends.py — atexit runs LIFO, so pools
# shut down (workers stop reading) before their segments are unlinked.
atexit.register(_cleanup_created_segments)


def _attach_segment(name: str) -> Any:
    """Attach to an existing segment without adopting its lifetime.

    Python 3.11's ``SharedMemory`` registers *attachments* with the
    resource tracker too (``track=False`` only exists from 3.13), which
    is wrong both ways: under ``spawn`` the worker's tracker unlinks the
    creator's segment when the worker exits; under ``fork`` the shared
    tracker would double-book and unregistering would strip the
    *creator's* entry.  The creator owns the segment, so registration is
    suppressed for the duration of the attach.
    """
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


class SharedWeights:
    """One shared, versioned image of a supernet's parameter arrays:
    this process's mapping of a new segment that it owns (tracked,
    unlinked on release or at exit), or of the existing one ``name``d.

    :attr:`views` holds one array per parameter, which the controller's
    parameters and the workers' are bound to; they die with
    :meth:`release`.  The writer brackets every write with
    :meth:`begin_write` (odd version) and :meth:`publish` (the next even
    one); a reader only compares the version with the stamp of the task
    it runs.
    """

    def __init__(self, layout: WeightLayout, dtype: Any, name: Optional[str] = None):
        self.layout = [
            (tuple(shape), int(offset), int(size))
            for shape, offset, size in layout
        ]
        self.dtype = np.dtype(dtype)
        total = sum(size for _, _, size in self.layout)
        self._owner = name is None
        self._closed = False
        if name is not None:
            self._segment = _attach_segment(name)
        else:
            nbytes = HEADER_BYTES + total * self.dtype.itemsize
            self._segment = shared_memory.SharedMemory(create=True, size=nbytes)
            _track(self._segment)
        self._header = np.ndarray((HEADER_SLOTS,), dtype=np.int64, buffer=self._segment.buf)
        data = np.ndarray((total,), dtype=self.dtype, buffer=self._segment.buf, offset=HEADER_BYTES)
        #: ``views[i]``: parameter ``i``'s weights
        self.views = [data[offset : offset + size].reshape(shape) for shape, offset, size in self.layout]

    @property
    def name(self) -> str:
        return self._segment.name

    def release(self) -> None:
        """Drop this process's mapping; the creator also unlinks the
        segment (for an attacher the segment itself survives)."""
        if self._closed:
            return
        self._closed = True
        self.views = []  # a view outliving the mapping would be a wild pointer
        _untrack(self._segment.name)
        try:
            self._segment.close()
            if self._owner:
                self._segment.unlink()
        except Exception:  # pragma: no cover - already gone
            pass

    @property
    def version(self) -> int:
        """Latest published version (even; odd means write in progress)."""
        return int(self._header[0])

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, arrays: Sequence[np.ndarray]) -> "SharedWeights":
        """Create a segment sized for ``arrays``, holding them as v2."""
        weights = cls(weight_layout(arrays), weight_dtype(arrays))
        for view, array in zip(weights.views, arrays):
            np.copyto(view, array)
        weights._header[0] = 2
        return weights

    @classmethod
    def attach(cls, name: str, layout: WeightLayout, dtype: Any) -> "SharedWeights":
        """Worker-side view of an existing segment (read-only by use)."""
        return cls(layout, dtype, name)

    # ------------------------------------------------------------------
    def begin_write(self) -> None:
        """Make the version odd: the views are about to change."""
        self._header[0] |= 1

    def publish(self) -> int:
        """End the write: the next even version, which is returned."""
        version = (self.version | 1) + 1
        self._header[0] = version
        return version
