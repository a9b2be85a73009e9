"""Crash-safe JSON-lines event log.

Counters answer "how much"; the event log answers "what happened when":
checkpoint saves and corrupt-snapshot fallbacks, supervisor restarts
with their crash classification, pipeline exhaustion, per-step search
records.  Operators tail it; ``python -m repro report telemetry``
renders a summary from it.

Appending to a single file is not crash-safe — a preempted writer
leaves a torn final line that poisons every later parse.  The log
therefore buffers events in memory and seals each flush into its own
numbered *segment* file written through
:func:`repro.runtime.atomic.atomic_write_text` (full payload to a temp
file, fsync, rename), so a reader only ever sees whole segments of
whole lines.  Buffered events that have not reached a segment die with
the process — acceptable for observability data, and exactly why the
metric *counters* (not the event log) are what checkpoints persist.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Callable, Dict, Iterator, List, Union

from ..runtime.atomic import atomic_write_text

PathLike = Union[str, pathlib.Path]

#: Segment file pattern: events-<seq>.jsonl, sorted lexicographically.
SEGMENT_GLOB = "events-*.jsonl"

#: Events buffered before they are sealed into a segment.
SEGMENT_EVENTS = 256


class EventLog:
    """Buffered JSONL sink sealing events into atomic segment files."""

    def __init__(self, directory: PathLike, clock: Callable[[], float] = time.time):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._buffer: List[str] = []
        self.events_emitted = 0
        self.segments_written = 0
        self._next_seq = self._scan_next_seq()

    def _scan_next_seq(self) -> int:
        """Continue numbering after segments an earlier process wrote."""
        last = -1
        for path in self.directory.glob(SEGMENT_GLOB):
            try:
                last = max(last, int(path.stem.split("-")[1]))
            except (IndexError, ValueError):
                continue
        return last + 1

    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields: Any) -> None:
        """Buffer one event; seals a segment when the buffer fills."""
        event: Dict[str, Any] = {"ts": self._clock(), "kind": kind}
        event.update(fields)
        self._buffer.append(json.dumps(event, sort_keys=True, default=str))
        self.events_emitted += 1
        if len(self._buffer) >= SEGMENT_EVENTS:
            self.flush()

    def flush(self) -> None:
        """Seal buffered events into a new segment file (no-op if empty)."""
        if not self._buffer:
            return
        path = self.directory / f"events-{self._next_seq:06d}.jsonl"
        atomic_write_text(path, "\n".join(self._buffer) + "\n")
        self._next_seq += 1
        self.segments_written += 1
        self._buffer.clear()

    def close(self) -> None:
        self.flush()


def read_events(directory: PathLike) -> Iterator[Dict[str, Any]]:
    """Yield every sealed event under ``directory``, oldest segment first.

    Only whole segments exist on disk (see :class:`EventLog`), so there
    is no torn-line case to recover from; an unparseable line is a real
    corruption and raises.
    """
    directory = pathlib.Path(directory)
    for path in sorted(directory.glob(SEGMENT_GLOB)):
        for line in path.read_text().splitlines():
            if line:
                yield json.loads(line)
