"""Span-based tracing over the metrics registry.

A *span* is one timed region of the search loop — a whole step, or one
of its stages (sample/score/price/policy_update/weight_update), or a
checkpoint save.  Spans accumulate into ``span.<name>`` histograms in
the shared :class:`~repro.telemetry.metrics.MetricsRegistry`, so the
report can show per-stage wall time without any separate bookkeeping.
:meth:`EvalRuntime.timed <repro.core.eval_runtime.EvalRuntime.timed>`
forwards its stage timings here when a telemetry handle is attached,
making the runtime's legacy stage accounting one view of the same
spans.

``Trace.record`` exists alongside the ``span`` context manager so hot
paths that already hold an elapsed time (the eval runtime's ``timed``)
can report it with one call instead of nesting a second context
manager.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

from .metrics import MetricsRegistry

#: Histogram-name prefix every span accumulates under.
SPAN_PREFIX = "span."


class Trace:
    """Records timed spans into ``span.<name>`` histograms."""

    def __init__(
        self,
        registry: MetricsRegistry,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.registry = registry
        self._clock = clock

    def record(self, name: str, seconds: float, **labels: object) -> None:
        """Account ``seconds`` of wall time to span ``name``."""
        self.registry.histogram(SPAN_PREFIX + name).observe(seconds, **labels)

    @contextmanager
    def span(self, name: str, **labels: object) -> Iterator[None]:
        """Time the enclosed block as one span observation."""
        start = self._clock()
        try:
            yield
        finally:
            self.record(name, self._clock() - start, **labels)
