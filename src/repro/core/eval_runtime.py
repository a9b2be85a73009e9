"""Memoized candidate-evaluation runtime for the search hot path.

RL policies resample the same architectures thousands of times as they
converge, yet every search step used to re-price each sampled candidate
through the full analytical pipeline (op-graph lowering + simulation).
The paper's performance model exists precisely because candidate pricing
must be an O(ms) lookup at hyperscale (Section 6.2); this module makes
the repo's search loops behave the same way:

* :class:`ArchMetricsCache` — an LRU cache keyed by the architecture's
  canonical decision-index tuple, memoizing ``performance_fn`` results;
* :class:`EvalRuntime` — the layer between the search algorithms and the
  performance signal: cached pricing plus lightweight instrumentation
  (cache hits/misses, per-stage wall time for every engine stage:
  sample/fetch-shard/score/price/reward/policy-update/weight-update);
* :class:`MemoizedEvaluate` — the same memoization for the multi-trial
  baselines, whose ``evaluate_fn`` stands for one full trial.

Searches expose the collected counters on ``SearchResult.eval_stats`` so
deployments can see where search time goes and how well the cache works.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..searchspace.base import Architecture, SearchSpace

#: Canonical cache key: one integer index per search-space decision.
ArchKey = Tuple[int, ...]

#: The canonical stage names, shared by every ``timed()`` caller and by
#: telemetry span names.  A free-form string here used to silently open
#: a new timing bucket that ``EvalRuntimeStats.summary`` then dropped;
#: callers must use these constants, and :meth:`EvalRuntime.timed`
#: rejects anything else.
STAGE_SAMPLE = "sample"
STAGE_FETCH_SHARD = "fetch_shard"
STAGE_SCORE = "score"
STAGE_PRICE = "price"
STAGE_REWARD = "reward"
STAGE_POLICY_UPDATE = "policy_update"
STAGE_WEIGHT_UPDATE = "weight_update"

#: Stage names the searches report wall time for, in pipeline order
#: (the engine's stage graph: sample -> fetch_shard -> score -> price
#: -> reward -> policy_update -> weight_update).
STAGES = (
    STAGE_SAMPLE,
    STAGE_FETCH_SHARD,
    STAGE_SCORE,
    STAGE_PRICE,
    STAGE_REWARD,
    STAGE_POLICY_UPDATE,
    STAGE_WEIGHT_UPDATE,
)


@runtime_checkable
class BatchPerformanceFn(Protocol):
    """A performance function that can price a whole shard in one call.

    A plain ``performance_fn`` maps one architecture to its metric
    mapping.  Vectorized backends — an MLP performance model whose
    forward pass batches trivially, a simulator pool — additionally
    expose :meth:`price_batch`, and :meth:`EvalRuntime.price_many`
    prices all cache misses of a shard through it in a single call
    instead of one Python round-trip per candidate.  Functions without
    ``price_batch`` fall back to per-architecture evaluation.
    """

    def __call__(self, arch: Architecture) -> Mapping[str, float]: ...

    def price_batch(
        self, archs: Sequence[Architecture]
    ) -> Sequence[Mapping[str, float]]: ...


def arch_key(indices: Sequence[int]) -> ArchKey:
    """The canonical decision-index tuple of an architecture."""
    return tuple(int(i) for i in indices)


class ArchMetricsCache:
    """Bounded LRU cache from decision-index tuples to cached values.

    Hit/miss/eviction counters are public so callers can report cache
    effectiveness without wrapping every access.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[ArchKey, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: ArchKey) -> bool:
        return key in self._entries

    def get(self, key: ArchKey) -> Optional[Any]:
        """Cached value for ``key`` (marking it most-recently used)."""
        try:
            entry = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: ArchKey, value: Any) -> None:
        """Insert ``key``, evicting the least-recently-used overflow."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._entries.clear()

    def plan(self, keys: Sequence[ArchKey]) -> List[bool]:
        """Hit/miss outcome of a sequential get/put pass over ``keys``.

        Simulates the LRU discipline (recency promotion on hit,
        insertion plus oldest-entry eviction on miss) without touching
        the real entries or counters, in time proportional to the shard
        and not to the cache: the simulated cache is the real entries
        nobody has ``moved`` yet, in their real order, followed by the
        keys this shard ``touched``, in recency order.  This is what lets
        :meth:`EvalRuntime.price_many` know, *before* evaluating
        anything, exactly which shard positions a sequential
        ``price()`` loop would have had to evaluate — including a
        duplicate whose first occurrence gets evicted mid-shard and so
        misses twice.
        """
        entries = self._entries
        touched: "OrderedDict[ArchKey, None]" = OrderedDict()
        moved = set()  # real entries promoted into ``touched`` or evicted
        oldest = iter(entries)  # the real entries from the LRU end, walked once
        size = len(entries)
        outcomes: List[bool] = []
        for key in keys:
            if key in touched:
                touched.move_to_end(key)
                outcomes.append(True)
                continue
            hit = key in entries and key not in moved
            touched[key] = None
            outcomes.append(hit)
            if hit:
                moved.add(key)
            elif size >= self.capacity:  # evict the oldest entry left
                for victim in oldest:
                    if victim not in moved:
                        moved.add(victim)
                        break
                else:
                    touched.popitem(last=False)
            else:
                size += 1
        return outcomes

    def export_state(self) -> dict:
        """JSON-ready snapshot: counters plus entries in LRU order."""
        return {
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": [[list(key), value] for key, value in self._entries.items()],
        }

    def import_state(self, state: dict) -> None:
        """Restore :meth:`export_state` output (contents and counters)."""
        self.capacity = int(state["capacity"])
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])
        self.evictions = int(state["evictions"])
        self._entries = OrderedDict(
            (arch_key(key), value) for key, value in state["entries"]
        )


@dataclass
class EvalRuntimeStats:
    """Snapshot of one runtime's counters (attached to ``SearchResult``)."""

    cache_enabled: bool
    cache_hits: int
    cache_misses: int
    cache_entries: int
    cache_capacity: int
    evaluations: int  #: candidates actually evaluated (not cache-answered)
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    stage_calls: Dict[str, int] = field(default_factory=dict)
    candidates_priced: int = 0  #: total price()/price_many() items served

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def price_throughput(self) -> float:
        """Candidates priced per second of price-stage wall time."""
        seconds = self.stage_seconds.get("price", 0.0)
        return self.candidates_priced / seconds if seconds > 0 else 0.0

    def stage_mean_seconds(self, stage: str) -> float:
        """Mean wall time of one ``timed(stage)`` block."""
        calls = self.stage_calls.get(stage, 0)
        return self.stage_seconds.get(stage, 0.0) / calls if calls else 0.0

    def summary(self) -> str:
        """One-line human-readable view for reports and the CLI, stages
        in pipeline order."""
        if self.cache_enabled:
            cache = (
                f"cache {self.cache_hits}/{self.cache_hits + self.cache_misses} hits "
                f"({100.0 * self.hit_rate:.1f}%), {self.evaluations} evaluations"
            )
        else:
            cache = f"cache off, {self.evaluations} evaluations"
        if self.price_throughput > 0:
            cache += f", {self.price_throughput:.0f} candidates/s priced"
        stages = ", ".join(
            f"{stage}={self.stage_seconds[stage] * 1e3:.1f}ms"
            f" ({self.stage_mean_seconds(stage) * 1e3:.2f}ms/call)"
            for stage in STAGES
            if stage in self.stage_seconds
        )
        return f"{cache}; {stages}" if stages else cache


class EvalRuntime:
    """Cached, instrumented gateway to a ``performance_fn``.

    Sits between the search algorithms and the performance signal.  All
    pricing goes through :meth:`price` (one candidate) or
    :meth:`price_many` (a whole shard, batched); searches wrap their
    stages in :meth:`timed` so :meth:`stats` can report where wall time
    goes.

    One runtime may be shared across several searches (e.g. every sweep
    point of :func:`repro.core.pareto_search.trace_front`) so repeated
    candidates are priced once for the whole campaign.
    """

    def __init__(
        self,
        performance_fn: Callable[[Architecture], Mapping[str, float]],
        space: Optional[SearchSpace] = None,
        use_cache: bool = True,
        cache_capacity: int = 4096,
        telemetry: Optional[Any] = None,
    ):
        self.performance_fn = performance_fn
        self.space = space
        self.cache: Optional[ArchMetricsCache] = (
            ArchMetricsCache(cache_capacity) if use_cache else None
        )
        #: vectorized pricing entry point, when the fn offers one
        #: (see :class:`BatchPerformanceFn`)
        self.batch_fn: Optional[
            Callable[[Sequence[Architecture]], Sequence[Mapping[str, float]]]
        ] = getattr(performance_fn, "price_batch", None)
        self.evaluations = 0
        self.candidates_priced = 0
        self._stage_seconds: Dict[str, float] = {}
        self._stage_calls: Dict[str, int] = {}
        #: shared :class:`repro.telemetry.Telemetry`; cache/pricing
        #: counters and stage spans mirror into it when attached
        self.telemetry = telemetry

    def attach_telemetry(self, telemetry: Any) -> None:
        """Attach a telemetry handle unless one is already set."""
        if self.telemetry is None:
            self.telemetry = telemetry

    def _pricing_marks(self) -> Tuple[int, int, int, int]:
        cache = self.cache
        if cache is None:
            return (0, 0, 0, self.evaluations)
        return (cache.hits, cache.misses, cache.evictions, self.evaluations)

    def _record_pricing(self, priced: int, before: Tuple[int, int, int, int]) -> None:
        """Mirror one pricing call's counter deltas into telemetry."""
        telemetry = self.telemetry
        if telemetry is None:
            return
        after = self._pricing_marks()
        telemetry.counter("eval.candidates_priced").inc(priced)
        telemetry.counter("eval.evaluations").inc(after[3] - before[3])
        if self.cache is not None:
            telemetry.counter("eval.cache.hits").inc(after[0] - before[0])
            telemetry.counter("eval.cache.misses").inc(after[1] - before[1])
            telemetry.counter("eval.cache.evictions").inc(after[2] - before[2])
            telemetry.gauge("eval.cache.entries").set(len(self.cache))

    # ------------------------------------------------------------------
    def _key(
        self, arch: Architecture, indices: Optional[Sequence[int]]
    ) -> ArchKey:
        if indices is None:
            if self.space is None:
                raise ValueError(
                    "EvalRuntime needs either explicit indices or a search "
                    "space to derive the cache key"
                )
            indices = self.space.indices_of(arch)
        return arch_key(indices)

    def _evaluate_batch(
        self, archs: Sequence[Architecture]
    ) -> List[Dict[str, float]]:
        """Evaluate ``archs`` in one vectorized call when possible.

        The fn's own ``price_batch`` (one vectorized call) when it has
        one, a sequential per-architecture loop otherwise.
        """
        self.evaluations += len(archs)
        if self.batch_fn is not None:
            metrics_list = [dict(m) for m in self.batch_fn(archs)]
            if len(metrics_list) != len(archs):
                raise ValueError(
                    f"price_batch returned {len(metrics_list)} results for "
                    f"{len(archs)} architectures"
                )
            return metrics_list
        return [dict(self.performance_fn(a)) for a in archs]

    # ------------------------------------------------------------------
    def price(
        self, arch: Architecture, indices: Optional[Sequence[int]] = None
    ) -> Dict[str, float]:
        """Performance metrics for ``arch``, memoized when caching is on.

        ``indices`` is the architecture's decision-index vector; passing
        it avoids re-deriving the cache key (the searches already hold
        it).  Without it the runtime needs ``space`` to compute the key.
        """
        marks = self._pricing_marks()
        self.candidates_priced += 1
        try:
            if self.cache is None:
                self.evaluations += 1
                return dict(self.performance_fn(arch))
            key = self._key(arch, indices)
            cached = self.cache.get(key)
            if cached is not None:
                return dict(cached)
            self.evaluations += 1
            metrics = dict(self.performance_fn(arch))
            self.cache.put(key, metrics)
            return dict(metrics)
        finally:
            self._record_pricing(1, marks)

    def price_many(
        self,
        drawn: Sequence[Tuple[Architecture, Optional[Sequence[int]]]],
    ) -> List[Dict[str, float]]:
        """Price a whole shard of ``(arch, indices)`` pairs in one pass.

        Sequentially equivalent by construction: a *plan* pass
        (:meth:`ArchMetricsCache.plan`) simulates the LRU discipline
        over the shard's keys to learn which positions a sequential
        ``[price(a, i) for a, i in drawn]`` loop would have evaluated —
        including re-evaluations of a duplicate whose first occurrence
        was evicted mid-shard under eviction pressure.  Those positions
        are evaluated together (one :class:`BatchPerformanceFn` call
        when the fn is batchable, a sequential loop otherwise), and then
        a *replay* pass applies the shard to the real cache in sequential
        order, splicing in the precomputed metrics.  Returned metrics, cache
        counters, evaluation counts, and final LRU contents are
        bit-identical to the sequential loop in every regime, eviction
        pressure included — pinned by
        ``tests/test_eval_runtime.py::TestPriceManyEvictionPressure``.
        """
        pairs = list(drawn)
        marks = self._pricing_marks()
        self.candidates_priced += len(pairs)
        try:
            if self.cache is None:
                return self._evaluate_batch([arch for arch, _ in pairs])
            keys = [self._key(arch, indices) for arch, indices in pairs]
            will_hit = self.cache.plan(keys)
            miss_archs = [
                pairs[position][0]
                for position, hit in enumerate(will_hit)
                if not hit
            ]
            miss_metrics = iter(
                self._evaluate_batch(miss_archs) if miss_archs else ()
            )
            results: List[Dict[str, float]] = []
            for key in keys:
                cached = self.cache.get(key)
                if cached is not None:
                    results.append(dict(cached))
                else:
                    metrics = next(miss_metrics)
                    self.cache.put(key, metrics)
                    results.append(dict(metrics))
            return results
        finally:
            self._record_pricing(len(pairs), marks)

    # ------------------------------------------------------------------
    @contextmanager
    def timed(self, stage: str) -> Iterator[None]:
        """Accumulate wall time of the enclosed block under ``stage``.

        ``stage`` must be one of :data:`STAGES` — a free-form name used
        to open a phantom bucket that the summary silently dropped.  The
        elapsed time is also forwarded to the attached telemetry trace
        as a ``span.<stage>`` observation.
        """
        if stage not in STAGES:
            raise ValueError(
                f"unknown stage {stage!r}; use one of the STAGE_* constants "
                f"({', '.join(STAGES)})"
            )
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stage_seconds[stage] = self._stage_seconds.get(stage, 0.0) + elapsed
            self._stage_calls[stage] = self._stage_calls.get(stage, 0) + 1
            if self.telemetry is not None:
                self.telemetry.trace.record(stage, elapsed)

    def stage_seconds(self, stage: str) -> float:
        return self._stage_seconds.get(stage, 0.0)

    # ------------------------------------------------------------------
    def stats(self) -> EvalRuntimeStats:
        """Immutable snapshot of the counters collected so far."""
        return EvalRuntimeStats(
            cache_enabled=self.cache is not None,
            cache_hits=self.cache.hits if self.cache else 0,
            cache_misses=self.cache.misses if self.cache else 0,
            cache_entries=len(self.cache) if self.cache else 0,
            cache_capacity=self.cache.capacity if self.cache else 0,
            evaluations=self.evaluations,
            stage_seconds=dict(self._stage_seconds),
            stage_calls=dict(self._stage_calls),
            candidates_priced=self.candidates_priced,
        )

    def export_state(self) -> dict:
        """Checkpoint-ready snapshot of cache contents and instrumentation.

        Wall-time accumulators are included so a resumed run's stage
        report continues from the snapshot rather than restarting at
        zero; they are the one part of the state that is *not* expected
        to be bit-identical across a crash/resume cycle.
        """
        return {
            "cache": self.cache.export_state() if self.cache is not None else None,
            "evaluations": self.evaluations,
            "candidates_priced": self.candidates_priced,
            "stage_seconds": dict(self._stage_seconds),
            "stage_calls": dict(self._stage_calls),
        }

    def import_state(self, state: dict) -> None:
        """Restore :meth:`export_state` output in place."""
        cache_state = state["cache"]
        if (cache_state is None) != (self.cache is None):
            raise ValueError(
                "checkpoint cache state does not match this runtime's "
                "use_cache setting"
            )
        unknown = sorted(
            {*state["stage_seconds"], *state["stage_calls"]} - set(STAGES)
        )
        if unknown:
            raise ValueError(
                f"checkpoint times unknown stage(s) {unknown}; expected "
                f"only {STAGES}"
            )
        if self.cache is not None and cache_state is not None:
            self.cache.import_state(cache_state)
        self.evaluations = int(state["evaluations"])
        self.candidates_priced = int(state["candidates_priced"])
        self._stage_seconds = {
            stage: float(v) for stage, v in state["stage_seconds"].items()
        }
        self._stage_calls = {
            stage: int(v) for stage, v in state["stage_calls"].items()
        }

    def reset_counters(self) -> None:
        """Zero the instrumentation (cache contents are kept)."""
        self.evaluations = 0
        self.candidates_priced = 0
        self._stage_seconds.clear()
        self._stage_calls.clear()
        if self.cache is not None:
            self.cache.hits = 0
            self.cache.misses = 0
            self.cache.evictions = 0


class MemoizedEvaluate:
    """LRU-memoized ``evaluate_fn`` for the multi-trial baselines.

    One ``evaluate_fn`` call stands for a full independent trial, so a
    duplicate candidate (random search resampling, evolution re-rolling
    a mutation back to a seen genotype) need not pay for a second trial.
    """

    def __init__(
        self,
        space: SearchSpace,
        evaluate_fn: Callable[[Architecture], Tuple[float, Mapping[str, float]]],
        capacity: int = 4096,
    ):
        self.space = space
        self.evaluate_fn = evaluate_fn
        self.cache = ArchMetricsCache(capacity)

    def __call__(self, arch: Architecture) -> Tuple[float, Mapping[str, float]]:
        key = arch_key(self.space.indices_of(arch))
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        result = self.evaluate_fn(arch)
        self.cache.put(key, result)
        return result

    def export_state(self) -> dict:
        """Checkpoint-ready snapshot ((quality, metrics) pairs as lists)."""
        state = self.cache.export_state()
        state["entries"] = [
            [key, [quality, dict(metrics)]]
            for key, (quality, metrics) in state["entries"]
        ]
        return state

    def import_state(self, state: dict) -> None:
        """Restore :meth:`export_state` output in place."""
        state = dict(state)
        state["entries"] = [
            [key, (float(quality), dict(metrics))]
            for key, (quality, metrics) in state["entries"]
        ]
        self.cache.import_state(state)
