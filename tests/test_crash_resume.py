"""Crash/resume: what the sweep's fingerprints do not see.

Whether a search killed at any step — between steps, mid-shard, after a
step, or past a damaged snapshot — resumes bit-identically, on every
backend, is ``test_sweep.py``'s job.  This file pins the rest of the
resume contract: telemetry totals across several crashes in one run
(run-scoped counters roll back with the checkpoint, churn counters keep
what really happened), the telemetry registry riding inside a snapshot,
and a snapshot from another shrink schedule refused.
"""

import pytest

from repro.runtime import (
    CheckpointError,
    CheckpointStore,
    FaultInjector,
    FaultSpec,
    SearchSupervisor,
    SupervisorConfig,
    resume_search,
    run_with_checkpoints,
    search_checkpoint_payload,
)
from repro.service.jobs import elastic_training_builder
from repro.supernet import ShrinkPhase, ShrinkSchedule
from repro.telemetry import CHURN_PREFIXES, Telemetry

from .test_sweep import (
    BUILDERS,
    STEPS,
    WORKLOADS,
    assert_results_identical,
    build_single,
    build_space,
    outcome_of,
    reference,
)
from .test_telemetry import total, value


class TestElasticCrashResume:
    def test_schedule_mismatch_rejected_on_resume(self, tmp_path):
        """A snapshot from a different shrink schedule must not load."""
        _, _, factory = elastic_training_builder(STEPS, 0, backend="serial")
        store = CheckpointStore(tmp_path)
        search = factory()
        history = [search.step(0)]
        store.save(1, search_checkpoint_payload(search, 1, history))

        other = factory()
        other.schedule = ShrinkSchedule((ShrinkPhase("full", 0),))
        with pytest.raises(CheckpointError, match="schedule"):
            resume_search(store, other)


class TestEarlierSnapshots:
    @pytest.mark.parametrize("backend", ["serial", "processes", "distributed"])
    def test_a_backend_entry_is_not_read(self, tmp_path, backend):
        """Format-2 snapshots once carried the backend's state (its name,
        worker count and last published weight version), and a spool may
        still hold some: a resume reads past the entry to the same run."""
        steps, build = WORKLOADS["single_step"]
        space, factory = build(steps, 3, backend)
        store = CheckpointStore(tmp_path)
        search = factory()
        history = [search.step(step) for step in range(4)]
        payload = search_checkpoint_payload(search, 4, history)
        payload["search"]["backend"] = {"name": "processes", "workers": 2, "weights_version": 10}
        store.save(4, payload)
        assert "backend" in store.load(store.latest())["search"]

        resumed = factory()
        next_step, history, _ = resume_search(store, resumed)
        assert next_step == 4
        history += [resumed.step(step) for step in range(next_step, steps)]
        result = resumed.build_result(history)
        assert outcome_of(space, result, resumed.supernet) == reference("single_step", 3)


#: Run-scoped counters that must be bit-identical across crash/resume.
RUN_COUNTERS = (
    "search.steps",
    "search.heartbeats",
    "eval.candidates_priced",
    "eval.evaluations",
    "eval.cache.hits",
    "eval.cache.misses",
    "pipeline.batches",
)


class TestTelemetryCrashResume:
    """Crash-resumed runs must report the same telemetry totals as
    uninterrupted runs — run-scoped counters roll back with the
    checkpoint, churn counters keep recording what really happened."""

    @staticmethod
    def _run_scoped(telemetry):
        snapshot = telemetry.registry.snapshot()
        return {
            kind: {
                name: series
                for name, series in snapshot[kind].items()
                if not name.startswith(CHURN_PREFIXES)
            }
            for kind in ("counters", "gauges")
        }

    @pytest.mark.parametrize("strategy", sorted(BUILDERS))
    def test_counter_totals_identical_after_three_crashes(self, tmp_path, strategy):
        build = BUILDERS[strategy]
        ref_tel = Telemetry()
        reference = run_with_checkpoints(build(None, telemetry=ref_tel), store=None).result

        # Crash before the first snapshot (fresh restart), at a
        # checkpoint boundary, and mid-interval: three in one run.
        crash_tel = Telemetry()
        injector = FaultInjector(
            [
                FaultSpec("crash", step=1),
                FaultSpec("crash", step=4),
                FaultSpec("crash", step=7),
            ]
        )
        supervisor = SearchSupervisor(
            lambda: build(None, telemetry=crash_tel),
            CheckpointStore(tmp_path, keep_last=3),
            SupervisorConfig(checkpoint_every=2, max_restarts=5, backoff_base_s=0.0),
            injector=injector,
            sleep_fn=lambda s: None,
        )
        outcome = supervisor.run()
        assert outcome.restarts == 3
        assert [f.step for f in injector.fired] == [1, 4, 7]
        assert_results_identical(reference, outcome.result, build_space())

        for name in RUN_COUNTERS:
            assert total(crash_tel.counter(name)) == total(ref_tel.counter(name)), name
        assert total(crash_tel.counter("search.steps")) == STEPS
        # Every run-scoped counter and gauge series, not just the list above.
        assert self._run_scoped(crash_tel) == self._run_scoped(ref_tel)
        # Churn counters record the crashes and resumes that really happened.
        assert total(crash_tel.counter("supervisor.crashes")) == 3
        assert total(crash_tel.counter("supervisor.restarts")) == 3
        assert total(crash_tel.counter("recovery.resumes")) == 2
        assert total(crash_tel.counter("checkpoint.saves")) >= 1
        # The uninterrupted reference saw none of that churn.
        assert total(ref_tel.counter("supervisor.crashes")) == 0
        # Waiting for the compute turn is churn too: one observation per
        # step really taken, replays included, never carried in a snapshot
        # (so it cannot perturb the run-scoped totals compared above).
        turn_wait = "service.turn_wait_seconds"
        assert ref_tel.histogram(turn_wait).stats()["count"] == STEPS
        assert crash_tel.histogram(turn_wait).stats()["count"] == outcome.heartbeats
        assert outcome.heartbeats > STEPS
        exported = {metric["name"] for metric in crash_tel.export_state()["metrics"]}
        assert "search.heartbeats" in exported and turn_wait not in exported

    def test_telemetry_state_roundtrips_through_checkpoint(self, tmp_path):
        """The telemetry registry state rides inside the snapshot payload."""
        telemetry = Telemetry()
        search = build_single(None, telemetry=telemetry)
        history = [search.step(step) for step in range(4)]
        store = CheckpointStore(tmp_path)
        store.save(4, search_checkpoint_payload(search, 4, history))

        fresh_tel = Telemetry()
        fresh = build_single(None, telemetry=fresh_tel)
        next_step, _, report = resume_search(store, fresh)
        assert report.resumed_from_step == 4 and next_step == 4
        assert value(fresh_tel.counter("search.steps")) == 4
        priced = [value(tel.counter("eval.candidates_priced")) for tel in (fresh_tel, telemetry)]
        assert priced[0] == priced[1]
