"""Crash/resume bit-identity: the fault-tolerant runtime's core property.

A search killed at step ``k`` — at a checkpoint boundary, between
snapshots, or mid-shard while cores are still scoring candidates — and
resumed from the newest snapshot must produce a ``SearchResult``
bit-identical to an uninterrupted run: same per-step rewards and
entropies, same final architecture, same cache counters, same batch
accounting.  (Wall-clock stage timings are the one excluded field.)
Checked for both search strategies, and end-to-end through the
supervisor with three crashes injected into a single run.
"""

import numpy as np
import pytest

from repro.core import (
    PerformanceObjective,
    SearchConfig,
    SingleStepSearch,
    TunasSearch,
    relu_reward,
)
from repro.data import CtrTaskConfig, CtrTeacher, SingleStepPipeline, TwoStreamPipeline
from repro.runtime import (
    CheckpointStore,
    FaultInjector,
    FaultSpec,
    SearchSupervisor,
    SupervisorConfig,
    resume_search,
    search_checkpoint_payload,
)
from repro.searchspace import DlrmSpaceConfig, dlrm_search_space
from repro.supernet import DlrmSuperNetwork, DlrmSupernetConfig

NUM_TABLES = 2
STEPS = 10


def build_space():
    return dlrm_search_space(DlrmSpaceConfig(num_tables=NUM_TABLES, num_dense_stacks=2))


def capacity_cost(arch):
    cost = 1.0
    for t in range(NUM_TABLES):
        cost += 0.05 * arch[f"emb{t}/width_delta"]
        cost += 0.2 * (arch[f"emb{t}/vocab_scale"] - 1.0)
    for s in range(2):
        cost += 0.04 * arch[f"dense{s}/width_delta"]
    return {"step_time": max(0.1, cost), "model_size": max(0.1, cost)}


def build_single(seed=0, telemetry=None):
    teacher = CtrTeacher(CtrTaskConfig(num_tables=NUM_TABLES, batch_size=16, seed=seed))
    return SingleStepSearch(
        space=build_space(),
        supernet=DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES, seed=seed)),
        pipeline=SingleStepPipeline(teacher.next_batch),
        reward_fn=relu_reward([PerformanceObjective("step_time", 1.0, -0.5)]),
        performance_fn=capacity_cost,
        config=SearchConfig(
            steps=STEPS, num_cores=2, warmup_steps=3, seed=seed, telemetry=telemetry
        ),
    )


def build_tunas(seed=0, telemetry=None):
    teacher = CtrTeacher(CtrTaskConfig(num_tables=NUM_TABLES, batch_size=16, seed=seed))
    return TunasSearch(
        space=build_space(),
        supernet=DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES, seed=seed)),
        pipeline=TwoStreamPipeline(teacher.next_batch, train_batches=6, valid_batches=4),
        reward_fn=relu_reward([PerformanceObjective("step_time", 1.0, -0.5)]),
        performance_fn=capacity_cost,
        config=SearchConfig(
            steps=STEPS, num_cores=2, warmup_steps=3, seed=seed, telemetry=telemetry
        ),
    )


BUILDERS = {"single_step": build_single, "tunas": build_tunas}


def assert_results_identical(reference, resumed, space):
    """Bit-identical SearchResults (stage wall-times excluded)."""
    np.testing.assert_array_equal(reference.rewards(), resumed.rewards())
    np.testing.assert_array_equal(reference.entropies(), resumed.entropies())
    assert list(space.indices_of(reference.final_architecture)) == list(
        space.indices_of(resumed.final_architecture)
    )
    assert reference.batches_used == resumed.batches_used
    assert reference.eval_stats.cache_hits == resumed.eval_stats.cache_hits
    assert reference.eval_stats.cache_misses == resumed.eval_stats.cache_misses


class TestKillAndResume:
    """Manual kill at step k, snapshot-every-step, resume in a fresh process."""

    # k=4 lands exactly on a checkpoint_every=2 boundary; k=5 is
    # mid-interval (resume replays one step); k=7 crosses warmup history.
    @pytest.mark.parametrize("strategy", sorted(BUILDERS))
    @pytest.mark.parametrize("kill_at", [4, 5, 7])
    def test_resume_bit_identical(self, tmp_path, strategy, kill_at):
        build = BUILDERS[strategy]
        reference = build().run()

        store = CheckpointStore(tmp_path, keep_last=2)
        dying = build()
        history = []
        for step in range(kill_at):
            history.append(dying.step(step))
            store.save(step + 1, search_checkpoint_payload(dying, step + 1, history))
        del dying  # the "process" is gone; only the store survives

        fresh = build()
        next_step, history, report = resume_search(store, fresh)
        assert report.resumed and next_step == kill_at
        for step in range(next_step, fresh.config.steps):
            history.append(fresh.step(step))
        resumed = fresh.build_result(history)
        assert_results_identical(reference, resumed, fresh.space)


class TestSupervisedCrashResume:
    """The acceptance property: supervisor + injected crashes end to end."""

    @pytest.mark.parametrize("strategy", sorted(BUILDERS))
    def test_three_crash_points_still_bit_identical(self, tmp_path, strategy):
        build = BUILDERS[strategy]
        reference = build().run()

        # Three distinct crash points: before the first snapshot exists
        # (restart from scratch), at a snapshot boundary, and mid-run.
        injector = FaultInjector(
            [
                FaultSpec("crash", step=1),
                FaultSpec("crash", step=4),
                FaultSpec("crash", step=7),
            ]
        )
        supervisor = SearchSupervisor(
            build,
            CheckpointStore(tmp_path, keep_last=3),
            SupervisorConfig(checkpoint_every=2, max_restarts=5, backoff_base_s=0.0),
            injector=injector,
            sleep_fn=lambda s: None,
        )
        outcome = supervisor.run()
        assert outcome.restarts == 3
        assert [f.step for f in injector.fired] == [1, 4, 7]
        assert_results_identical(reference, outcome.result, build().space)

    @pytest.mark.parametrize("strategy", sorted(BUILDERS))
    def test_mid_shard_crash_bit_identical(self, tmp_path, strategy):
        """Death while cores are mid-scoring, not between steps."""
        build = BUILDERS[strategy]
        reference = build().run()

        injector = FaultInjector(
            [FaultSpec("crash", step=5, phase="mid", mid_after_calls=1)]
        )
        supervisor = SearchSupervisor(
            build,
            CheckpointStore(tmp_path),
            SupervisorConfig(checkpoint_every=2, max_restarts=3, backoff_base_s=0.0),
            injector=injector,
            sleep_fn=lambda s: None,
        )
        outcome = supervisor.run()
        assert outcome.restarts == 1
        assert [f.step for f in injector.fired] == [5]
        # The half-scored step rolled back to the step-4 snapshot and
        # was replayed in full by the second attempt.
        assert outcome.steps_replayed == 1
        assert_results_identical(reference, outcome.result, build().space)

    def test_after_phase_crash_bit_identical(self, tmp_path):
        """Step completes, worker dies before the next snapshot lands."""
        build = build_single
        reference = build().run()
        injector = FaultInjector([FaultSpec("crash", step=6, phase="after")])
        supervisor = SearchSupervisor(
            build,
            CheckpointStore(tmp_path),
            SupervisorConfig(checkpoint_every=3, max_restarts=3, backoff_base_s=0.0),
            injector=injector,
            sleep_fn=lambda s: None,
        )
        outcome = supervisor.run()
        assert outcome.restarts == 1
        # Step 6 completed but its work died with the process; the
        # newest snapshot (6 completed steps) replays it exactly.
        assert_results_identical(reference, outcome.result, build().space)


def build_elastic(seed=0, telemetry=None):
    from repro.core import ElasticTraining
    from repro.supernet import ShrinkSchedule

    teacher = CtrTeacher(CtrTaskConfig(num_tables=NUM_TABLES, batch_size=16, seed=seed))
    return ElasticTraining(
        build_space(),
        DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES, seed=seed)),
        SingleStepPipeline(teacher.next_batch),
        schedule=ShrinkSchedule.default(STEPS),
        config=SearchConfig(
            steps=STEPS, num_cores=2, warmup_steps=0, seed=seed, telemetry=telemetry
        ),
    )


class TestElasticCrashResume:
    """Progressive-shrinking training killed and resumed stays bit-identical.

    ``ShrinkSchedule.default(10)`` switches phases at steps 3 and 6, so
    kill points cover mid-phase (4), exactly at a phase boundary (3, 6),
    and resuming *into* a later phase than the one that was running.
    """

    @pytest.mark.parametrize("kill_at", [3, 4, 6])
    def test_resume_bit_identical(self, tmp_path, kill_at):
        reference = build_elastic().run()

        store = CheckpointStore(tmp_path / "ckpt", keep_last=2)
        dying = build_elastic()
        history = []
        for step in range(kill_at):
            history.append(dying.step(step))
            store.save(step + 1, search_checkpoint_payload(dying, step + 1, history))
        del dying

        fresh = build_elastic()
        next_step, history, report = resume_search(store, fresh)
        assert report.resumed and next_step == kill_at
        for step in range(next_step, fresh.config.steps):
            history.append(fresh.step(step))
        resumed = fresh.build_result(history)
        assert_results_identical(reference, resumed, fresh.space)

    def test_resumed_artifact_weights_bit_identical(self, tmp_path):
        """The saved artifacts — not just the histories — match exactly."""
        from repro.runtime import save_elastic_artifact

        reference = build_elastic()
        for step in range(STEPS):
            reference.step(step)

        store = CheckpointStore(tmp_path / "ckpt")
        dying = build_elastic()
        history = []
        for step in range(4):
            history.append(dying.step(step))
            store.save(step + 1, search_checkpoint_payload(dying, step + 1, history))
        del dying
        fresh = build_elastic()
        next_step, history, _ = resume_search(store, fresh)
        for step in range(next_step, STEPS):
            fresh.step(step)

        ref_art = save_elastic_artifact(
            tmp_path / "ref", reference.supernet, reference.space,
            reference.schedule, trained_steps=STEPS, seed=0,
        )
        res_art = save_elastic_artifact(
            tmp_path / "res", fresh.supernet, fresh.space,
            fresh.schedule, trained_steps=STEPS, seed=0,
        )
        assert ref_art.weights_sha == res_art.weights_sha

        # A specialization against either artifact is bit-identical too.
        from repro.service.jobs import specialization_builder

        runs = []
        for directory in (tmp_path / "ref", tmp_path / "res"):
            space, factory = specialization_builder(directory, "tpu_v4", 4, 0)
            runs.append(factory().run())
        assert_results_identical(runs[0], runs[1], space)

    def test_schedule_mismatch_rejected_on_resume(self, tmp_path):
        """A snapshot from a different shrink schedule must not load."""
        from repro.runtime import CheckpointError
        from repro.supernet import ShrinkPhase, ShrinkSchedule

        store = CheckpointStore(tmp_path)
        search = build_elastic()
        history = [search.step(0)]
        store.save(1, search_checkpoint_payload(search, 1, history))

        other = build_elastic()
        other.schedule = ShrinkSchedule((ShrinkPhase("full", 0),))
        with pytest.raises(CheckpointError, match="schedule"):
            resume_search(store, other)


class TestSpecializationCrashResume:
    """Policy-only specialization killed mid-run resumes bit-identically."""

    def _build(self, artifact_dir):
        from repro.service.jobs import specialization_builder

        space, factory = specialization_builder(artifact_dir, "tpu_v4i", STEPS, 0)
        return space, factory

    @pytest.mark.parametrize("kill_at", [2, 5])
    def test_resume_bit_identical(self, tmp_path, kill_at):
        from repro.runtime import save_elastic_artifact

        trained = build_elastic()
        for step in range(STEPS):
            trained.step(step)
        artifact_dir = tmp_path / "artifact"
        save_elastic_artifact(
            artifact_dir, trained.supernet, trained.space, trained.schedule,
            trained_steps=STEPS, seed=0,
        )

        space, factory = self._build(artifact_dir)
        reference = factory().run()

        store = CheckpointStore(tmp_path / "ckpt", keep_last=2)
        dying = factory()
        history = []
        for step in range(kill_at):
            history.append(dying.step(step))
            store.save(step + 1, search_checkpoint_payload(dying, step + 1, history))
        del dying

        fresh = factory()
        next_step, history, report = resume_search(store, fresh)
        assert report.resumed and next_step == kill_at
        for step in range(next_step, fresh.config.steps):
            history.append(fresh.step(step))
        resumed = fresh.build_result(history)
        assert_results_identical(reference, resumed, space)


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
        from repro.telemetry import CHURN_PREFIXES

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
        from repro.runtime import run_with_checkpoints
        from repro.telemetry import Telemetry

        build = BUILDERS[strategy]
        ref_tel = Telemetry()
        run_with_checkpoints(build(telemetry=ref_tel), store=None)

        # Crash before the first snapshot (fresh restart), at a
        # checkpoint boundary, and mid-interval.
        crash_tel = Telemetry()
        injector = FaultInjector(
            [
                FaultSpec("crash", step=1),
                FaultSpec("crash", step=4),
                FaultSpec("crash", step=7),
            ]
        )
        supervisor = SearchSupervisor(
            lambda: build(telemetry=crash_tel),
            CheckpointStore(tmp_path, keep_last=3),
            SupervisorConfig(checkpoint_every=2, max_restarts=5, backoff_base_s=0.0),
            injector=injector,
            sleep_fn=lambda s: None,
        )
        outcome = supervisor.run()
        assert outcome.restarts == 3

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
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        search = build_single(telemetry=telemetry)
        history = [search.step(step) for step in range(4)]
        store = CheckpointStore(tmp_path)
        store.save(4, search_checkpoint_payload(search, 4, history))

        fresh_tel = Telemetry()
        fresh = build_single(telemetry=fresh_tel)
        next_step, _, report = resume_search(store, fresh)
        assert report.resumed and next_step == 4
        assert fresh_tel.counter("search.steps").value() == 4
        assert fresh_tel.counter("eval.candidates_priced").value() == telemetry.counter(
            "eval.candidates_priced"
        ).value()
