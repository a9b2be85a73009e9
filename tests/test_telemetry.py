"""Tests for the telemetry subsystem and the retry-classification fixes."""

import json

import pytest

from repro.core import SearchConfig
from repro.core.eval_runtime import STAGES, EvalRuntime
from repro.runtime import CheckpointStore, RestartBudgetExceeded, SearchSupervisor, SupervisorConfig
from repro.runtime.errors import classify_error, is_retryable
from repro.runtime.faults import InjectedCrash
from repro.telemetry import (
    CHURN_PREFIXES,
    EventLog,
    MetricsRegistry,
    Telemetry,
    read_events,
)
from repro.telemetry.report import render_report, summarize_events


class TestMetrics:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("search.steps")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5
        assert registry.counter("search.steps") is counter

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            MetricsRegistry().counter("c").inc(-1)

    def test_labeled_series_are_independent(self):
        counter = MetricsRegistry().counter("supervisor.crashes")
        counter.inc(error="TypeError", retryable="false")
        counter.inc(error="RuntimeError", retryable="true")
        counter.inc(error="RuntimeError", retryable="true")
        assert counter.value(error="TypeError", retryable="false") == 1
        assert counter.value(error="RuntimeError", retryable="true") == 2
        assert counter.total() == 3

    def test_gauge_keeps_last_value(self):
        gauge = MetricsRegistry().gauge("search.reward")
        assert gauge.value() is None
        gauge.set(0.25)
        gauge.set(0.75)
        assert gauge.value() == 0.75

    def test_histogram_streams_stats(self):
        hist = MetricsRegistry().histogram("span.step")
        for v in (1.0, 3.0, 2.0):
            hist.observe(v)
        stats = hist.stats()
        assert stats["count"] == 3
        assert stats["total"] == pytest.approx(6.0)
        assert stats["min"] == 1.0 and stats["max"] == 3.0
        assert stats["mean"] == pytest.approx(2.0)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="is a counter, not a gauge"):
            registry.gauge("x")

    def test_export_import_roundtrip_excludes_churn(self):
        registry = MetricsRegistry()
        registry.counter("search.steps").inc(7)
        registry.gauge("search.reward").set(0.5)
        registry.histogram("span.step").observe(0.01)
        registry.counter("supervisor.crashes").inc(error="RuntimeError")
        state = registry.export_state(exclude_prefixes=CHURN_PREFIXES)
        assert {m["name"] for m in state["metrics"]} == {
            "search.steps",
            "search.reward",
            "span.step",
        }
        # JSON-safe: the state must survive a serialization round trip.
        state = json.loads(json.dumps(state))

        target = MetricsRegistry()
        target.counter("search.steps").inc(99)  # stale run count: replaced
        target.counter("supervisor.crashes").inc(3)  # churn: survives
        target.import_state(state, exclude_prefixes=CHURN_PREFIXES)
        assert target.counter("search.steps").value() == 7
        assert target.gauge("search.reward").value() == 0.5
        assert target.histogram("span.step").stats()["count"] == 1
        assert target.counter("supervisor.crashes").total() == 3

    def test_reset_spares_churn(self):
        registry = MetricsRegistry()
        registry.counter("search.steps").inc()
        registry.counter("testbed.retries").inc()
        registry.reset(exclude_prefixes=CHURN_PREFIXES)
        assert "search.steps" not in registry
        assert registry.counter("testbed.retries").value() == 1


class TestEventLog:
    def test_events_seal_into_segments(self, tmp_path):
        log = EventLog(tmp_path, segment_events=2, clock=lambda: 1.0)
        log.emit("a", x=1)
        assert log.pending == 1 and log.segments_written == 0
        log.emit("b")  # fills the segment
        assert log.pending == 0 and log.segments_written == 1
        log.emit("c")
        log.close()
        events = list(read_events(tmp_path))
        assert [e["kind"] for e in events] == ["a", "b", "c"]
        assert events[0] == {"ts": 1.0, "kind": "a", "x": 1}

    def test_numbering_resumes_after_restart(self, tmp_path):
        first = EventLog(tmp_path, segment_events=1)
        first.emit("a")
        # A second process (restart) must not overwrite segment 0.
        second = EventLog(tmp_path, segment_events=1)
        second.emit("b")
        assert [e["kind"] for e in read_events(tmp_path)] == ["a", "b"]

    def test_unflushed_events_never_hit_disk(self, tmp_path):
        log = EventLog(tmp_path, segment_events=100)
        log.emit("buffered")
        assert list(tmp_path.glob("events-*.jsonl")) == []


class TestTelemetryFacade:
    def test_in_memory_events_are_noops(self):
        telemetry = Telemetry()
        telemetry.event("search.step", step=0)  # no directory: dropped
        telemetry.flush()
        assert telemetry.events is None

    def test_span_times_into_histogram(self):
        telemetry = Telemetry()
        with telemetry.span("step"):
            pass
        assert telemetry.trace.span_stats("step")["count"] == 1

    def test_summary_written_on_close(self, tmp_path):
        telemetry = Telemetry(tmp_path)
        telemetry.counter("search.steps").inc(3)
        telemetry.event("search.step", step=0, reward=0.5)
        telemetry.close()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["counters"]["search.steps"][""] == 3
        assert [e["kind"] for e in read_events(tmp_path / "events")] == ["search.step"]

    def test_export_state_excludes_churn(self):
        telemetry = Telemetry()
        telemetry.counter("search.steps").inc()
        telemetry.counter("checkpoint.saves").inc()
        names = {m["name"] for m in telemetry.export_state()["metrics"]}
        assert names == {"search.steps"}


class TestReport:
    def test_render_full_report(self, tmp_path):
        telemetry = Telemetry(tmp_path)
        telemetry.counter("search.steps").inc(2)
        telemetry.gauge("search.reward").set(0.5)
        with telemetry.span("step"):
            pass
        telemetry.event("search.step", step=0, reward=0.4, quality=0.5, entropy=2.0)
        telemetry.event("search.step", step=1, reward=0.5, quality=0.6, entropy=1.9)
        telemetry.close()
        report = render_report(tmp_path)
        assert "search.steps" in report and "search.reward" in report
        assert "span.step" in report
        assert "steps: 2 unique, 0 replayed" in report
        assert "last step: step=1" in report

    def test_render_handles_missing_artifacts(self, tmp_path):
        report = render_report(tmp_path)
        assert "no summary.json" in report and "no event log" in report

    def test_summarize_counts_replays(self):
        events = [
            {"ts": 0.0, "kind": "search.step", "step": 0},
            {"ts": 1.0, "kind": "search.step", "step": 1},
            {"ts": 2.0, "kind": "supervisor.restart", "attempt": 1},
            {"ts": 3.0, "kind": "search.step", "step": 1},
        ]
        facts = summarize_events(events)
        assert facts["steps_seen"] == 3
        assert facts["unique_steps"] == 2
        assert facts["replayed_steps"] == 1


class TestTimedStageValidation:
    def test_unknown_stage_rejected(self):
        runtime = EvalRuntime(lambda arch: {"t": 1.0})
        with pytest.raises(ValueError, match="unknown stage 'scoring'"):
            with runtime.timed("scoring"):
                pass

    def test_canonical_stages_accepted_and_forwarded(self):
        telemetry = Telemetry()
        runtime = EvalRuntime(lambda arch: {"t": 1.0}, telemetry=telemetry)
        for stage in STAGES:
            with runtime.timed(stage):
                pass
        stats = runtime.stats()
        for stage in STAGES:
            assert stats.stage_calls[stage] == 1
            assert telemetry.trace.span_stats(stage)["count"] == 1

    def test_import_rejects_unknown_stage_buckets(self):
        runtime = EvalRuntime(lambda arch: {"t": 1.0})
        state = runtime.export_state()
        state["stage_seconds"] = {"price": 0.5, "scoring": 0.25}
        state["stage_calls"] = {"price": 5, "scoring": 2}
        with pytest.raises(ValueError, match="unknown stage.*'scoring'"):
            runtime.import_state(state)
        assert runtime.stats().stage_seconds == {}
        del state["stage_seconds"]["scoring"], state["stage_calls"]["scoring"]
        runtime.import_state(state)
        assert "price=500.0ms" in runtime.stats().summary()


class TestEvalRuntimeTelemetry:
    def test_price_mirrors_cache_counters(self):
        telemetry = Telemetry()
        runtime = EvalRuntime(
            lambda arch: {"t": float(arch["v"])}, telemetry=telemetry, cache_capacity=8
        )
        runtime.price({"v": 1}, indices=(1,))
        runtime.price({"v": 1}, indices=(1,))
        assert telemetry.counter("eval.candidates_priced").value() == 2
        assert telemetry.counter("eval.cache.hits").value() == 1
        assert telemetry.counter("eval.cache.misses").value() == 1
        assert telemetry.counter("eval.evaluations").value() == 1
        assert telemetry.gauge("eval.cache.entries").value() == 1

    def test_price_many_mirrors_in_one_delta(self):
        telemetry = Telemetry()
        runtime = EvalRuntime(
            lambda arch: {"t": float(arch["v"])}, telemetry=telemetry, cache_capacity=8
        )
        drawn = [({"v": i}, (i,)) for i in (0, 1, 0)]
        runtime.price_many(drawn)
        assert telemetry.counter("eval.candidates_priced").value() == 3
        assert telemetry.counter("eval.cache.hits").value() == 1
        assert telemetry.counter("eval.cache.misses").value() == 2


class TestErrorClassification:
    @pytest.mark.parametrize(
        "error", [TypeError("t"), KeyError("k"), ValueError("v"), AttributeError("a")]
    )
    def test_programming_errors_not_retryable(self, error):
        assert not is_retryable(error)
        assert classify_error(error) == "non_retryable"

    @pytest.mark.parametrize(
        "error", [RuntimeError("preempted"), OSError("disk"), MemoryError()]
    )
    def test_environment_errors_retryable(self, error):
        assert is_retryable(error)
        assert classify_error(error) == "retryable"

    def test_injected_faults_always_retryable(self):
        assert is_retryable(InjectedCrash("injected crash"))


class _BuggySearch:
    """A search whose step has a deterministic programming bug."""

    config = SearchConfig(steps=4, num_cores=1)
    telemetry = None

    def __init__(self, telemetry=None):
        self.telemetry = telemetry

    def step(self, step):
        raise TypeError("bad config: expected int, got str")

    def state_dict(self):
        return {}


class TestSupervisorClassification:
    def test_non_retryable_crash_raises_immediately(self, tmp_path):
        telemetry = Telemetry()
        supervisor = SearchSupervisor(
            lambda: _BuggySearch(telemetry),
            CheckpointStore(tmp_path),
            SupervisorConfig(max_restarts=5, backoff_base_s=0.0),
            sleep_fn=lambda s: None,
        )
        # The original TypeError surfaces, not RestartBudgetExceeded.
        with pytest.raises(TypeError, match="bad config"):
            supervisor.run()
        assert telemetry.counter("supervisor.crashes").value(
            error="TypeError", retryable="false"
        ) == 1
        # No restart was attempted, so no restart counter ticked.
        assert telemetry.counter("supervisor.restarts").total() == 0

    def test_retryable_crashes_still_burn_the_budget(self, tmp_path):
        class DoomedSearch:
            config = SearchConfig(steps=4, num_cores=1)
            telemetry = None

            def step(self, step):
                raise RuntimeError("preempted")

            def state_dict(self):
                return {}

        supervisor = SearchSupervisor(
            DoomedSearch,
            CheckpointStore(tmp_path),
            SupervisorConfig(max_restarts=2, backoff_base_s=0.0),
            sleep_fn=lambda s: None,
        )
        with pytest.raises(RestartBudgetExceeded):
            supervisor.run()


class TestTestbedClassification:
    def _bed(self, telemetry=None, max_attempts=3):
        from repro.hardware import TPU_V4, HardwareTestbed, MeasurementPolicy

        return HardwareTestbed(
            TPU_V4,
            seed=0,
            policy=MeasurementPolicy(max_attempts=max_attempts),
            sleep_fn=lambda s: None,
            telemetry=telemetry,
        )

    def _graph(self):
        from repro.graph import OpGraph, ops

        graph = OpGraph("tiny")
        graph.chain([ops.matmul("mm", m=64, k=64, n=64)])
        return graph

    def test_non_retryable_attempt_raises_immediately(self):
        telemetry = Telemetry()
        bed = self._bed(telemetry)
        calls = {"n": 0}

        def broken(graph):
            calls["n"] += 1
            raise TypeError("batch size must be int")

        bed.measure_time = broken
        with pytest.raises(TypeError, match="must be int"):
            bed.measure(self._graph())
        assert calls["n"] == 1  # no blind retries of a deterministic bug
        assert telemetry.counter("testbed.failures").value(
            error="TypeError", retryable="false"
        ) == 1

    def test_retryable_failures_counted(self):
        telemetry = Telemetry()
        bed = self._bed(telemetry, max_attempts=4)
        real = bed.measure_time
        failures = {"left": 2}

        def flaky(graph):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("preempted")
            return real(graph)

        bed.measure_time = flaky
        measurement = bed.measure(self._graph())
        assert measurement.retries == 2
        assert telemetry.counter("testbed.retries").value() == 2
        assert telemetry.counter("testbed.failures").value(
            error="RuntimeError", retryable="true"
        ) == 2
        assert telemetry.counter("testbed.measurements").value() == 1


class TestEventLogConcurrency:
    """Concurrent per-job streams: the daemon's telemetry layout.

    The service runs N jobs at once, each writing its own EventLog
    under ``runs/<job>/telemetry/events``, while operators tail live
    streams.  Two writer threads on distinct streams plus a reader
    tailing one of them mid-write must never observe a torn or
    interleaved JSONL record — segments are sealed atomically, so a
    reader only ever sees whole segments of whole lines.
    """

    WRITES = 120

    def test_two_writers_and_a_live_reader_see_whole_records(self, tmp_path):
        import threading

        dirs = [tmp_path / "job-a", tmp_path / "job-b"]
        logs = [EventLog(d, segment_events=4) for d in dirs]
        start = threading.Barrier(3)
        errors = []

        def writer(index):
            log = logs[index]
            start.wait()
            for i in range(self.WRITES):
                log.emit("step", writer=index, i=i, payload="x" * 200)
            log.close()

        def reader():
            # Tails writer 0's stream while segments are landing; every
            # observed record must already be complete and parseable
            # (read_events would raise on a torn line).
            start.wait()
            try:
                while len(list(dirs[0].glob("events-*.jsonl"))) * 4 < self.WRITES:
                    for event in read_events(dirs[0]):
                        assert event["kind"] == "step"
                        assert set(event) == {"ts", "kind", "writer", "i", "payload"}
                        assert event["writer"] == 0
            except Exception as error:  # surfaced after join
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(0,)),
            threading.Thread(target=writer, args=(1,)),
            threading.Thread(target=reader),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # Final state: each stream holds exactly its own writer's
        # records, in order, with no cross-stream interleaving.
        for index, d in enumerate(dirs):
            events = list(read_events(d))
            assert [e["i"] for e in events] == list(range(self.WRITES))
            assert {e["writer"] for e in events} == {index}
