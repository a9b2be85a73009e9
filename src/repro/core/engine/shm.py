"""Shared-memory publication of supernet weights for process workers.

The ``processes`` backend scores shards in worker *processes* the
controller spawned on this machine, so the supernet's weights must be
visible across address spaces.  Pickling the weights into every task
would ship the full parameter set per task per step; instead the engine
publishes **one** copy into a :mod:`multiprocessing.shared_memory`
segment and updates it in place after each cross-shard weight update.
Workers attach once (the ``context`` message names the segment, see
:mod:`.distributed`) and copy the current weights into their rehydrated
supernet before scoring.  This is the weight *carrier* of
controller-spawned links; workers reached over TCP get the same
versions as byte pushes instead.

Torn reads are prevented with a *seqlock*: the segment header carries a
version counter that the publisher bumps to an odd value before writing
and to the next even value after.  A reader copies the payload, then
re-reads the version — an odd value or a changed value means the copy
raced a write and must be retried.  (In the engine's step loop the
publisher only writes between fan-outs, so retries are a correctness
backstop, not a steady-state cost.)

Two segment flavors live here, both flat float64 images of one
``(shape, offset, size)`` layout (:func:`weight_layout`, which the TCP
byte push shares): :class:`SharedWeights`, the parameters going out, and
:class:`SharedGradients`, its mirror — one image per task of a training
fan-out, written by the workers and read by the engine.

Every segment this process creates is tracked and unlinked at exit, so
crashed or interrupted runs do not leak ``/dev/shm`` entries.
"""

from __future__ import annotations

import atexit
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

try:  # pragma: no cover - exercised implicitly on every POSIX platform
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - platforms without shm support
    shared_memory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]

#: int64 header slots: ``[0]`` is the seqlock version; the rest are
#: reserved so the payload stays 64-byte aligned.
HEADER_SLOTS = 8
HEADER_BYTES = HEADER_SLOTS * 8

#: ``(shape, offset, size)`` per parameter, offsets in float64 elements.
WeightLayout = List[Tuple[Tuple[int, ...], int, int]]


def shared_memory_available() -> bool:
    """Whether this platform offers ``multiprocessing.shared_memory``."""
    return shared_memory is not None


def weight_layout(arrays: Sequence[np.ndarray]) -> WeightLayout:
    """``(shape, offset, size)`` per array, offsets in float64 elements.

    The one layout convention both weight carriers use: the shared
    segment's payload and the array a TCP weight push carries.
    """
    layout: WeightLayout = []
    offset = 0
    for array in arrays:
        if array.dtype != np.float64:
            raise TypeError(f"shared weights must be float64, got {array.dtype}")
        layout.append((tuple(array.shape), offset, int(array.size)))
        offset += int(array.size)
    return layout


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
    """Unlink every still-live segment this process created."""
    with _CREATED_LOCK:
        segments = list(_CREATED.values())
        _CREATED.clear()
    for segment in segments:
        try:
            segment.close()
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


class _Segment:
    """This process's mapping of one segment: a new one of ``nbytes``
    that it owns (tracked, unlinked on release or at exit), or the
    existing one ``name``d.  Views die with :meth:`release`."""

    def __init__(self, nbytes: int, name: Optional[str] = None):
        self._owner = name is None
        self._closed = False
        if name is not None:
            self._segment = _attach_segment(name)
        else:
            self._segment = shared_memory.SharedMemory(create=True, size=max(nbytes, 8))
            _track(self._segment)

    @property
    def name(self) -> str:
        return self._segment.name

    def release(self) -> None:
        """Drop this process's mapping; the creator also unlinks the
        segment (for an attacher the segment itself survives)."""
        if self._closed:
            return
        self._closed = True
        _untrack(self._segment.name)
        try:
            self._segment.close()
            if self._owner:
                self._segment.unlink()
        except Exception:  # pragma: no cover - already gone
            pass


class SharedWeights(_Segment):
    """One shared, versioned copy of a supernet's parameter arrays.

    The publisher (engine process) calls :meth:`publish` after every
    cross-shard weight update; readers (workers) call :meth:`copy_into`
    before scoring.  The seqlock version makes a torn read impossible:
    readers retry until they observe the same even version before and
    after their copy.
    """

    def __init__(self, layout: WeightLayout, name: Optional[str] = None):
        self.layout = [
            (tuple(shape), int(offset), int(size))
            for shape, offset, size in layout
        ]
        total = sum(size for _, _, size in self.layout)
        super().__init__(HEADER_BYTES + total * 8, name)
        self._header = np.ndarray((HEADER_SLOTS,), dtype=np.int64, buffer=self._segment.buf)
        self._data = np.ndarray(
            (total,), dtype=np.float64, buffer=self._segment.buf, offset=HEADER_BYTES
        )

    @property
    def version(self) -> int:
        """Latest published version (even; odd means write in progress)."""
        return int(self._header[0])

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, arrays: Sequence[np.ndarray]) -> "SharedWeights":
        """Create a segment sized for ``arrays`` and publish them as v2."""
        weights = cls(weight_layout(arrays))
        weights._header[:] = 0
        weights.publish(arrays)
        return weights

    @classmethod
    def attach(cls, name: str, layout: WeightLayout) -> "SharedWeights":
        """Worker-side view of an existing segment (read-only by use)."""
        return cls(layout, name)

    # ------------------------------------------------------------------
    def publish(self, arrays: Sequence[np.ndarray]) -> int:
        """Write ``arrays`` into the segment under the seqlock; returns
        the new (even) version."""
        if len(arrays) != len(self.layout):
            raise ValueError(
                f"publish got {len(arrays)} arrays for a layout of "
                f"{len(self.layout)}"
            )
        current = self.version
        self._header[0] = current + 1  # odd: write in progress
        for array, (shape, offset, size) in zip(arrays, self.layout):
            self._data[offset : offset + size] = np.asarray(array).reshape(-1)
        self._header[0] = current + 2
        return current + 2

    def copy_into(self, arrays: Sequence[np.ndarray]) -> int:
        """Copy the current weights into ``arrays``; returns the version.

        Retries until a stable even version brackets the copy, so the
        caller never observes a half-written update.
        """
        if len(arrays) != len(self.layout):
            raise ValueError(
                f"copy_into got {len(arrays)} arrays for a layout of "
                f"{len(self.layout)}"
            )
        while True:
            before = self.version
            if before & 1:
                time.sleep(0.0002)
                continue
            for array, (shape, offset, size) in zip(arrays, self.layout):
                np.copyto(array, self._data[offset : offset + size].reshape(shape))
            if self.version == before:
                return before
            time.sleep(0.0002)


class SharedGradients(_Segment):
    """The mirror of :class:`SharedWeights`: ``slots`` gradient images of
    one layout, written by workers and read by the engine.

    Slot ``k`` belongs to task ``k`` of a training fan-out.  No seqlock:
    the worker writes its slot and *then* sends the task's ``result``
    frame, the happens-before edge for the engine's read, and a lost
    worker is reaped before its orphan is re-run into the same slot.
    Pages nobody wrote cost no memory.
    """

    def __init__(self, layout: WeightLayout, slots: int, name: Optional[str] = None):
        total = sum(size for _, _, size in layout)
        super().__init__(slots * total * 8, name)
        flat = np.ndarray((slots, total), dtype=np.float64, buffer=self._segment.buf)
        #: ``views[slot][i]``: parameter ``i``'s gradient in that slot
        self.views: List[List[np.ndarray]] = [
            [flat[slot, offset : offset + size].reshape(shape) for shape, offset, size in layout]
            for slot in range(slots)
        ]

    def release(self) -> None:
        self.views = []  # a view outliving the mapping would be a wild pointer
        super().release()
