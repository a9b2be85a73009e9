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

from .test_sweep import BUILDERS, STEPS, assert_results_identical, build_single, build_space


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
            assert crash_tel.counter(name).total() == ref_tel.counter(name).total(), name
        assert crash_tel.counter("search.steps").total() == STEPS
        # Every run-scoped counter and gauge series, not just the list above.
        assert self._run_scoped(crash_tel) == self._run_scoped(ref_tel)
        # Churn counters record the crashes and resumes that really happened.
        assert crash_tel.counter("supervisor.crashes").total() == 3
        assert crash_tel.counter("supervisor.restarts").total() == 3
        assert crash_tel.counter("recovery.resumes").total() == 2
        assert crash_tel.counter("checkpoint.saves").total() >= 1
        # The uninterrupted reference saw none of that churn.
        assert ref_tel.counter("supervisor.crashes").total() == 0
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
        assert report.resumed and next_step == 4
        assert fresh_tel.counter("search.steps").value() == 4
        assert fresh_tel.counter("eval.candidates_priced").value() == telemetry.counter(
            "eval.candidates_priced"
        ).value()
