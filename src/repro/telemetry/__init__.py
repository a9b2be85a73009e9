"""Search telemetry: metrics registry, span tracing, event log.

The paper's system is a production NAS *service*; what makes a fleet of
search jobs debuggable is seeing step rates, cache behavior,
reward/entropy trajectories, and restart churn live (Rankitect and
Cummings et al. make the same point about large NAS deployments).  This
package is that layer for the reproduction:

* :mod:`repro.telemetry.metrics` — dependency-free counters / gauges /
  histograms with labeled series;
* :mod:`repro.telemetry.tracing` — span timing over the same registry
  (subsumes ``EvalRuntime.timed``);
* :mod:`repro.telemetry.events` — crash-safe JSON-lines event log;
* :mod:`repro.telemetry.report` — renders a run summary from the event
  log and summary snapshot (CLI: ``python -m repro report telemetry``).

One :class:`Telemetry` object is shared by every subsystem of a run —
searches, eval runtime, pipelines, checkpoint store, supervisor,
hardware testbed — which is what lets the report correlate them.

**Metric naming.**  Dotted lowercase ``<subsystem>.<noun>`` names
(``search.steps``, ``eval.cache.hits``, ``pipeline.outstanding``,
``span.price``); label dimensions instead of name suffixes
(``supervisor.crashes{error=TypeError,retryable=false}``).

**Checkpoint scope.**  Run-scoped metrics (search progress, cache and
pipeline accounting, span times) are captured in checkpoint snapshots
and rolled back on resume, so a crash-resumed run reports totals
bit-identical to an uninterrupted one.  Metrics under
:data:`CHURN_PREFIXES` record process-lifetime events — restarts,
crash classifications, checkpoint saves/loads, corrupt-snapshot
fallbacks, measurement retries — that really happened and are *never*
rolled back.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from ..runtime.atomic import atomic_write_json
from .events import EventLog, read_events
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_labels,
    label_key,
)
from .tracing import SPAN_PREFIX, Trace

PathLike = Union[str, pathlib.Path]

#: Version of the exported telemetry state layout.
TELEMETRY_STATE_FORMAT = 1

#: Metric-name prefixes that describe process churn rather than run
#: progress; excluded from checkpoint export/import and from
#: fresh-restart resets (see module docstring).
CHURN_PREFIXES: Tuple[str, ...] = (
    "supervisor.",
    "checkpoint.",
    "recovery.",
    "testbed.",
    # Daemon-level accounting (submissions, recoveries, quota rejects)
    # records what really happened to the service, never rolls back
    # with any one job's checkpoint.
    "service.",
)

#: File the final counter snapshot is written to under the telemetry dir.
SUMMARY_NAME = "summary.json"

#: Directory (under the telemetry dir) holding event-log segments.
EVENTS_DIRNAME = "events"


class Telemetry:
    """One run's shared registry + trace + optional on-disk event log.

    Without a ``directory`` the object is a pure in-memory collector
    (cheap enough to leave on in tests); with one, events stream to
    ``<directory>/events/`` and :meth:`write_summary` snapshots the
    registry to ``<directory>/summary.json`` for ``report telemetry``.
    """

    def __init__(
        self,
        directory: Optional[PathLike] = None,
        registry: Optional[MetricsRegistry] = None,
        segment_events: int = 256,
    ):
        self.directory = pathlib.Path(directory) if directory is not None else None
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = Trace(self.registry)
        self.events: Optional[EventLog] = (
            EventLog(self.directory / EVENTS_DIRNAME, segment_events=segment_events)
            if self.directory is not None
            else None
        )

    # -- metric passthroughs -------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.registry.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(name)

    def histogram(self, name: str) -> Histogram:
        return self.registry.histogram(name)

    def span(self, name: str, **labels: Any):
        return self.trace.span(name, **labels)

    def event(self, kind: str, **fields: Any) -> None:
        """Emit to the event log, if one is attached (no-op otherwise)."""
        if self.events is not None:
            self.events.emit(kind, **fields)

    # -- persistence ---------------------------------------------------
    def write_summary(self) -> Optional[pathlib.Path]:
        """Atomically snapshot the registry to ``summary.json``."""
        if self.directory is None:
            return None
        payload = {"format": TELEMETRY_STATE_FORMAT, **self.registry.snapshot()}
        return atomic_write_json(
            self.directory / SUMMARY_NAME, payload, indent=2, sort_keys=True
        )

    def flush(self) -> None:
        """Seal buffered events and refresh the on-disk summary."""
        if self.events is not None:
            self.events.flush()
        self.write_summary()

    def close(self) -> None:
        if self.events is not None:
            self.events.close()
        self.write_summary()

    # -- checkpoint protocol -------------------------------------------
    def export_state(self) -> dict:
        """Run-scoped metric state for checkpoint snapshots."""
        state = self.registry.export_state(exclude_prefixes=CHURN_PREFIXES)
        state["format"] = TELEMETRY_STATE_FORMAT
        return state

    def import_state(self, state: Dict[str, Any]) -> None:
        """Roll run-scoped metrics back to a snapshot's totals."""
        self.registry.import_state(state, exclude_prefixes=CHURN_PREFIXES)

    def reset_run_metrics(self) -> None:
        """Drop run-scoped metrics (a restart with no usable snapshot)."""
        self.registry.reset(exclude_prefixes=CHURN_PREFIXES)


__all__ = [
    "CHURN_PREFIXES",
    "EVENTS_DIRNAME",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SPAN_PREFIX",
    "SUMMARY_NAME",
    "TELEMETRY_STATE_FORMAT",
    "Telemetry",
    "Trace",
    "format_labels",
    "label_key",
    "read_events",
]
