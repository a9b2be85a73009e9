"""Dependency-free metrics primitives: counters, gauges, histograms.

The search loop runs millions of steps in production; its metrics layer
must cost nanoseconds on the hot path and carry zero dependencies (the
registry is imported by every subsystem, including ones that must load
in a crippled recovery process).  Three metric kinds cover the fleet
dashboards the paper's operations story needs:

* :class:`Counter` — monotone totals (steps completed, cache hits,
  measurement retries);
* :class:`Gauge` — last-observed values (reward, policy entropy,
  outstanding pipeline batches);
* :class:`Histogram` — summary statistics of repeated observations
  (span wall times); count/total/min/max rather than bucketed
  quantiles, which is what the overhead contract affords.

Every metric supports *labeled series*: ``counter.inc(kind="TypeError",
retryable="false")`` keeps one value per label combination, so one
metric name covers a whole family without string formatting on the hot
path.

The registry splits metrics into two scopes (see
:data:`CHURN_PREFIXES` in :mod:`repro.telemetry`):

* **run-scoped** metrics describe search progress and are included in
  checkpoint snapshots, so a crash-resumed run reports totals
  bit-identical to an uninterrupted one;
* **churn** metrics describe process-lifetime events (restarts, crash
  classifications, checkpoint saves, measurement retries) that really
  happened and must *not* be rolled back on resume.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

Number = Union[int, float]

#: Canonical series key: sorted (label, value) pairs, all strings.
LabelKey = Tuple[Tuple[str, str], ...]

#: The unlabeled series of a metric.
NO_LABELS: LabelKey = ()


def label_key(labels: Mapping[str, object]) -> LabelKey:
    """Canonical, hashable form of a label set."""
    if not labels:
        return NO_LABELS
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_labels(key: LabelKey) -> str:
    """Human-readable ``k=v,k2=v2`` form of a series key ('' unlabeled)."""
    return ",".join(f"{k}={v}" for k, v in key)


class Counter:
    """Monotonically increasing total, one value per label combination."""

    kind = "counter"

    __slots__ = ("name", "_series")

    def __init__(self, name: str):
        self.name = name
        self._series: Dict[LabelKey, Number] = {}

    def inc(self, amount: Number = 1, **labels: object) -> None:
        """Add ``amount`` (>= 0) to the labeled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        key = label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def series(self) -> Dict[LabelKey, Number]:
        return dict(self._series)


class Gauge:
    """Last-observed value, one per label combination."""

    kind = "gauge"

    __slots__ = ("name", "_series")

    def __init__(self, name: str):
        self.name = name
        self._series: Dict[LabelKey, Number] = {}

    def set(self, value: Number, **labels: object) -> None:
        self._series[label_key(labels)] = value

    def series(self) -> Dict[LabelKey, Number]:
        return dict(self._series)


class Histogram:
    """Streaming summary (count/total/min/max) of repeated observations."""

    kind = "histogram"

    __slots__ = ("name", "_series")

    def __init__(self, name: str):
        self.name = name
        #: key -> [count, total, min, max]
        self._series: Dict[LabelKey, List[float]] = {}

    def observe(self, value: Number, **labels: object) -> None:
        key = label_key(labels)
        cell = self._series.get(key)
        if cell is None:
            self._series[key] = [1, float(value), float(value), float(value)]
            return
        cell[0] += 1
        cell[1] += value
        if value < cell[2]:
            cell[2] = float(value)
        if value > cell[3]:
            cell[3] = float(value)

    def stats(self, **labels: object) -> Optional[Dict[str, float]]:
        cell = self._series.get(label_key(labels))
        if cell is None:
            return None
        count, total, low, high = cell
        return {
            "count": count,
            "total": total,
            "min": low,
            "max": high,
            "mean": total / count if count else 0.0,
        }

    def series(self) -> Dict[LabelKey, Dict[str, float]]:
        return {key: self.stats(**dict(key)) for key in self._series}


Metric = Union[Counter, Gauge, Histogram]

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Name-indexed home of every metric a process emits.

    Metrics are created on first use (``registry.counter("search.steps")``)
    and type-checked on every lookup, so the same name cannot silently
    serve as both a counter and a gauge.  Export/import round-trips
    through JSON-safe plain data for checkpointing; both honor
    ``exclude_prefixes`` so churn metrics survive a restore (see module
    docstring).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, cls) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    # ------------------------------------------------------------------
    @staticmethod
    def _excluded(name: str, exclude_prefixes: Iterable[str]) -> bool:
        return any(name.startswith(prefix) for prefix in exclude_prefixes)

    def snapshot(self) -> dict:
        """JSON-ready view of every metric, for summary files and reports.

        Series are keyed by their ``k=v,...`` label string ('' for the
        unlabeled series), sorted for stable output.
        """
        out: Dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            series = {
                format_labels(key): value
                for key, value in sorted(metric.series().items())
            }
            out[metric.kind + "s"][name] = series
        return out

    def export_state(self, exclude_prefixes: Iterable[str] = ()) -> dict:
        """Checkpoint-ready snapshot of (run-scoped) metric series.

        Label keys become ``[[k, v], ...]`` lists; histogram cells stay
        ``[count, total, min, max]``.  Metrics whose name starts with an
        excluded prefix are omitted — they belong to the process, not
        the run.
        """
        metrics = []
        for name in sorted(self._metrics):
            if self._excluded(name, exclude_prefixes):
                continue
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                series = [
                    [[list(pair) for pair in key], list(cell)]
                    for key, cell in sorted(metric._series.items())
                ]
            else:
                series = [
                    [[list(pair) for pair in key], value]
                    for key, value in sorted(metric._series.items())
                ]
            metrics.append({"name": name, "kind": metric.kind, "series": series})
        return {"metrics": metrics}

    def import_state(
        self, state: Mapping, exclude_prefixes: Iterable[str] = ()
    ) -> None:
        """Restore :meth:`export_state` output.

        Every non-excluded metric is dropped and replaced by the
        snapshot's series (a resumed run must not keep counts from the
        steps being rolled back); excluded (churn) metrics are left
        untouched.
        """
        for name in list(self._metrics):
            if not self._excluded(name, exclude_prefixes):
                del self._metrics[name]
        for entry in state["metrics"]:
            name = entry["name"]
            if self._excluded(name, exclude_prefixes):
                continue
            metric = self._get(name, _KINDS[entry["kind"]])
            for raw_key, value in entry["series"]:
                key = tuple((str(k), str(v)) for k, v in raw_key)
                if isinstance(metric, Histogram):
                    metric._series[key] = [
                        value[0],
                        float(value[1]),
                        float(value[2]),
                        float(value[3]),
                    ]
                else:
                    metric._series[key] = value

    def reset(self, exclude_prefixes: Iterable[str] = ()) -> None:
        """Drop every non-excluded metric (a from-scratch restart)."""
        for name in list(self._metrics):
            if not self._excluded(name, exclude_prefixes):
                del self._metrics[name]
