"""Unit tests for the fault-tolerant runtime (repro.runtime).

Covers the atomic write primitives, the state packing, the checkpoint
store (save/load/retention/corruption), recovery fallback, fault
injection, the supervisor's restart policy, measurement retries, and
the resumable multi-trial / front-sweep drivers.  The end-to-end
crash/resume bit-identity property lives in ``test_crash_resume.py``.
"""

import json

import numpy as np
import pytest

from repro.core import (
    EvolutionConfig,
    EvolutionarySearch,
    FrontSearchConfig,
    PerformanceObjective,
    RandomSearch,
    SearchConfig,
    SingleStepSearch,
    load_policy,
    relu_reward,
    save_policy,
    trace_front,
)
from repro.core.controller import CategoricalPolicy
from repro.data import CtrTaskConfig, CtrTeacher, SingleStepPipeline
from repro.graph import OpGraph, ops
from repro.hardware import (
    HardwareTestbed,
    MeasurementError,
    MeasurementPolicy,
    TPU_V4,
)
from repro.runtime import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointStore,
    FaultInjector,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    RestartBudgetExceeded,
    SearchSupervisor,
    SupervisorConfig,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    file_sha256,
    pack_state,
    resume_latest,
    run_with_checkpoints,
    unpack_state,
)
from repro.searchspace import DlrmSpaceConfig, dlrm_search_space
from repro.supernet import DlrmSuperNetwork, DlrmSupernetConfig

NUM_TABLES = 2


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


def build_search(seed=0, steps=8):
    teacher = CtrTeacher(CtrTaskConfig(num_tables=NUM_TABLES, batch_size=16, seed=seed))
    return SingleStepSearch(
        space=build_space(),
        supernet=DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES, seed=seed)),
        pipeline=SingleStepPipeline(teacher.next_batch),
        reward_fn=relu_reward([PerformanceObjective("step_time", 1.0, -0.5)]),
        performance_fn=capacity_cost,
        config=SearchConfig(steps=steps, num_cores=2, warmup_steps=2, seed=seed),
    )


# ----------------------------------------------------------------------
# Atomic primitives
# ----------------------------------------------------------------------


class TestAtomic:
    def test_write_bytes_replaces_atomically(self, tmp_path):
        path = tmp_path / "payload.bin"
        atomic_write_bytes(path, b"first")
        atomic_write_bytes(path, b"second")
        assert path.read_bytes() == b"second"
        # No temp files survive a successful write.
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_write_text_and_json(self, tmp_path):
        atomic_write_text(tmp_path / "t.txt", "héllo")
        assert (tmp_path / "t.txt").read_text(encoding="utf-8") == "héllo"
        atomic_write_json(tmp_path / "d.json", {"a": [1, 2]})
        assert json.loads((tmp_path / "d.json").read_text()) == {"a": [1, 2]}

    def test_write_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "nested" / "deep" / "x.json"
        atomic_write_json(path, 1)
        assert json.loads(path.read_text()) == 1

    def test_file_sha256_matches_content(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"abc")
        assert file_sha256(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )


# ----------------------------------------------------------------------
# State packing
# ----------------------------------------------------------------------


class TestPackState:
    def test_round_trip_mixed_tree(self):
        state = {
            "w": np.arange(6, dtype=np.float64).reshape(2, 3),
            "mask": np.array([True, False]),
            "nested": {"ints": np.arange(4, dtype=np.int64), "flag": True},
            "scalars": [np.float64(1.5), np.int64(7), None, "text", 3],
        }
        tree, arrays = pack_state(state)
        json.dumps(tree)  # the tree must be JSON-serializable
        restored = unpack_state(tree, arrays)
        np.testing.assert_array_equal(restored["w"], state["w"])
        np.testing.assert_array_equal(restored["mask"], state["mask"])
        np.testing.assert_array_equal(restored["nested"]["ints"], state["nested"]["ints"])
        assert restored["scalars"] == [1.5, 7, None, "text", 3]

    def test_rejects_non_string_keys(self):
        with pytest.raises(CheckpointError, match="keys must be strings"):
            pack_state({1: "x"})

    def test_rejects_reserved_key(self):
        with pytest.raises(CheckpointError, match="reserved"):
            pack_state({"__ndarray__": 0})

    def test_rejects_unsupported_values(self):
        with pytest.raises(CheckpointError, match="cannot checkpoint"):
            pack_state({"f": lambda: None})


# ----------------------------------------------------------------------
# The checkpoint store
# ----------------------------------------------------------------------


def sample_state(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "weights": rng.normal(size=(5, 3)),
        "counts": rng.integers(0, 10, size=7),
        "tiny": np.float32(0.25) * np.ones(2, dtype=np.float32),
        "step": int(seed),
        "nested": {"more": rng.normal(size=4)},
    }


class TestCheckpointStore:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        state = sample_state(3)
        info = store.save(3, state)
        assert info.step == 3
        loaded = store.load(info)
        np.testing.assert_array_equal(loaded["weights"], state["weights"])
        np.testing.assert_array_equal(loaded["counts"], state["counts"])
        assert loaded["tiny"].dtype == np.float32
        assert loaded["step"] == 3

    def test_snapshot_invisible_until_manifest_names_it(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.latest() is None
        # A stray staging dir (crashed writer) is never listed, and the
        # next save sweeps it.
        (tmp_path / ".tmp-snap-000099-step-000099-1234").mkdir()
        assert store.snapshots() == []
        store.save(1, sample_state(1))
        assert [s.step for s in store.snapshots()] == [1]
        assert not list(tmp_path.glob(".tmp-*"))

    def test_retention_keeps_last_n(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=2)
        for step in range(1, 5):
            store.save(step, sample_state(step))
        steps = [s.step for s in store.snapshots()]
        assert steps == [3, 4]
        # Retired snapshot directories are gone from disk too.
        dirs = {p.name for p in tmp_path.iterdir() if p.is_dir()}
        assert dirs == {s.snapshot_id for s in store.snapshots()}

    def test_keep_last_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path, keep_last=0)

    def test_corrupt_arrays_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        info = store.save(1, sample_state(1))
        path = store.snapshot_dir(info) / CheckpointStore.ARRAYS_NAME
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError, match="checksum mismatch"):
            store.load(info)

    def test_missing_file_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        info = store.save(1, sample_state(1))
        (store.snapshot_dir(info) / CheckpointStore.STATE_NAME).unlink()
        with pytest.raises(CheckpointCorruptError, match="missing file"):
            store.load(info)


class TestRecovery:
    def test_empty_store_resumes_fresh(self, tmp_path):
        assert resume_latest(CheckpointStore(tmp_path)) is None

    def test_falls_back_past_corrupt_snapshot(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=3)
        store.save(1, sample_state(1))
        store.save(2, sample_state(2))
        newest = store.save(3, sample_state(3))
        path = store.snapshot_dir(newest) / CheckpointStore.ARRAYS_NAME
        path.write_bytes(b"garbage")
        loaded = resume_latest(store)
        assert loaded.info.step == 2
        assert loaded.corrupt_skipped == [newest.snapshot_id]
        assert loaded.state["step"] == 2

    def test_all_corrupt_raises(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=2)
        for step in (1, 2):
            info = store.save(step, sample_state(step))
            (store.snapshot_dir(info) / CheckpointStore.ARRAYS_NAME).write_bytes(b"x")
        with pytest.raises(CheckpointCorruptError, match="all 2 snapshots"):
            resume_latest(store)


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor", step=0)
        with pytest.raises(ValueError, match="phase"):
            FaultSpec("crash", step=0, phase="during")
        with pytest.raises(ValueError, match="only meaningful for crash"):
            FaultSpec("straggler", step=0, phase="mid")
        with pytest.raises(ValueError, match="step"):
            FaultSpec("crash", step=-1)


class TestFaultInjector:
    def test_crash_fires_exactly_once(self):
        injector = FaultInjector([FaultSpec("crash", step=2)])
        injector.arm(search=None, store=None)
        injector.before_step(0)
        injector.before_step(1)
        with pytest.raises(InjectedCrash):
            injector.before_step(2)
        # The spec is spent: replaying step 2 after a restart is safe.
        injector.before_step(2)
        assert injector.pending == []
        assert [f.step for f in injector.fired] == [2]

    def test_after_phase_crash(self):
        injector = FaultInjector([FaultSpec("crash", step=1, phase="after")])
        injector.arm(search=None, store=None)
        injector.before_step(1)  # the step itself runs
        with pytest.raises(InjectedCrash):
            injector.after_step(1)

    def test_straggler_sleeps_without_failing(self):
        delays = []
        injector = FaultInjector(
            [FaultSpec("straggler", step=0, delay_s=0.25)], sleep_fn=delays.append
        )
        injector.arm(search=None, store=None)
        injector.before_step(0)
        assert delays == [0.25]

    def test_corrupt_checkpoint_damages_latest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(1, sample_state(1))
        injector = FaultInjector(
            [FaultSpec("corrupt_checkpoint", step=2, file_name="arrays.bin")], seed=7
        )
        injector.arm(search=None, store=store)
        injector.before_step(2)
        with pytest.raises(CheckpointCorruptError):
            store.load(store.latest())

    def test_corrupt_checkpoint_noop_on_empty_store(self, tmp_path):
        injector = FaultInjector([FaultSpec("corrupt_checkpoint", step=0)])
        injector.arm(search=None, store=CheckpointStore(tmp_path))
        injector.before_step(0)  # nothing to damage; must not raise

    def test_exhaust_pipeline_cuts_the_stream(self):
        search = build_search(steps=6)
        injector = FaultInjector([FaultSpec("exhaust_pipeline", step=2)])
        injector.arm(search=search, store=None)
        with pytest.raises(Exception) as excinfo:
            run_with_checkpoints(search, injector=injector)
        # The pipeline protocol error escapes loudly at the next fetch.
        assert "exhaust" in str(excinfo.value).lower() or "Pipeline" in type(
            excinfo.value
        ).__name__

    def test_exhaust_pipeline_without_support_raises_injected_fault(self):
        class NoPipeline:
            pipeline = None

        injector = FaultInjector([FaultSpec("exhaust_pipeline", step=0)])
        injector.arm(search=NoPipeline(), store=None)
        with pytest.raises(InjectedFault):
            injector.before_step(0)


# ----------------------------------------------------------------------
# run_with_checkpoints / supervisor
# ----------------------------------------------------------------------


class TestRunWithCheckpoints:
    def test_validates_cadence(self):
        with pytest.raises(ValueError):
            run_with_checkpoints(build_search(), checkpoint_every=0)

    def test_snapshot_count_and_no_final_snapshot(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=10)
        run = run_with_checkpoints(build_search(steps=8), store=store, checkpoint_every=2)
        # Saves at 2, 4, 6 — never after the final step (the result exists).
        assert run.snapshots_written == 3
        assert [s.step for s in store.snapshots()] == [2, 4, 6]
        assert not run.resume.resumed
        assert len(run.result.history) == 8

    def test_without_store_runs_plain(self):
        run = run_with_checkpoints(build_search(steps=4))
        assert run.snapshots_written == 0
        assert len(run.result.history) == 4


class TestSupervisor:
    def test_backoff_schedule(self):
        config = SupervisorConfig(backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.3)
        assert config.backoff_for(1) == pytest.approx(0.1)
        assert config.backoff_for(2) == pytest.approx(0.2)
        assert config.backoff_for(5) == pytest.approx(0.3)  # capped

    def test_survives_injected_crashes(self, tmp_path):
        store = CheckpointStore(tmp_path)
        injector = FaultInjector([FaultSpec("crash", step=3), FaultSpec("crash", step=6)])
        sleeps = []
        supervisor = SearchSupervisor(
            lambda: build_search(steps=8),
            store,
            SupervisorConfig(checkpoint_every=2, max_restarts=5, backoff_base_s=0.05),
            injector=injector,
            sleep_fn=sleeps.append,
        )
        outcome = supervisor.run()
        assert [a.outcome for a in outcome.attempts] == ["crashed", "crashed", "completed"]
        assert outcome.restarts == 2
        assert sleeps == [pytest.approx(0.05), pytest.approx(0.1)]
        # Attempt 2 resumed from the snapshot at step 2, attempt 3 from 6.
        assert outcome.attempts[1].start_step == 2
        assert outcome.attempts[2].start_step == 6
        assert len(outcome.result.history) == 8
        # Steps 2 and 3 ran twice (snapshot at 2, crash at 3 rolled back to 2).
        assert outcome.steps_replayed == 1
        assert outcome.heartbeats == 3 + (6 - 2) + (8 - 6)

    def test_restart_budget_exhausted(self, tmp_path):
        # A search that dies on its first step of every attempt: the
        # supervisor must give up after max_restarts rebuilds.
        class DoomedSearch:
            config = SearchConfig(steps=4, num_cores=1)

            def step(self, step):
                raise RuntimeError("boom")

            def state_dict(self):
                return {}

        supervisor = SearchSupervisor(
            DoomedSearch,
            CheckpointStore(tmp_path),
            SupervisorConfig(max_restarts=2, backoff_base_s=0.0),
            sleep_fn=lambda s: None,
        )
        with pytest.raises(RestartBudgetExceeded, match="crashed 3 times"):
            supervisor.run()


# ----------------------------------------------------------------------
# Measurement retries (hardware testbed)
# ----------------------------------------------------------------------


def tiny_graph():
    graph = OpGraph("tiny")
    graph.chain([ops.matmul("mm", m=256, k=256, n=256)])
    return graph


class TestMeasurementRetry:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            MeasurementPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            MeasurementPolicy(timeout_s=0.0)

    def test_clean_measurement_costs_one_attempt(self):
        bed = HardwareTestbed(TPU_V4, seed=0)
        measurement = bed.measure(tiny_graph())
        assert measurement.attempts == 1
        assert measurement.retries == 0
        assert measurement.time_s > 0
        assert bed.total_retries == 0

    def test_flaky_attempts_are_retried_with_backoff(self):
        sleeps = []
        bed = HardwareTestbed(
            TPU_V4,
            seed=0,
            policy=MeasurementPolicy(max_attempts=4, backoff_base_s=0.01),
            sleep_fn=sleeps.append,
        )
        real = bed.measure_time
        failures = {"left": 2}

        def flaky(graph):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("preempted")
            return real(graph)

        bed.measure_time = flaky
        measurement = bed.measure(tiny_graph())
        assert measurement.attempts == 3
        assert measurement.retries == 2
        assert bed.total_retries == 2
        assert sleeps == [pytest.approx(0.01), pytest.approx(0.02)]

    def test_exhausted_retries_raise_measurement_error(self):
        bed = HardwareTestbed(
            TPU_V4, seed=0, policy=MeasurementPolicy(max_attempts=2), sleep_fn=lambda s: None
        )
        bed.measure_time = lambda graph: (_ for _ in ()).throw(RuntimeError("dead"))
        with pytest.raises(MeasurementError, match="after 2 attempts"):
            bed.measure(tiny_graph())

    def test_timeout_counts_and_retries(self):
        # A fake clock that advances 1s per reading: every attempt takes
        # "1s" against a 0.5s deadline and times out.
        ticks = iter(range(100))
        bed = HardwareTestbed(
            TPU_V4,
            seed=0,
            policy=MeasurementPolicy(max_attempts=3, timeout_s=0.5),
            clock=lambda: float(next(ticks)),
            sleep_fn=lambda s: None,
        )
        with pytest.raises(MeasurementError, match="3 timed out"):
            bed.measure(tiny_graph())
        assert bed.total_timeouts == 3
        assert bed.total_retries == 2


# ----------------------------------------------------------------------
# Atomic serialization (core.serialize)
# ----------------------------------------------------------------------


class TestAtomicSerialize:
    def test_save_policy_atomic_round_trip(self, tmp_path):
        space = build_space()
        policy = CategoricalPolicy(space)
        policy.logits[0][:] = np.linspace(-1, 1, policy.logits[0].size)
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        save_policy(policy, path)  # overwrite goes through replace, not append
        restored = load_policy(space, path)
        for a, b in zip(policy.logits, restored.logits):
            np.testing.assert_array_equal(a, b)
        assert list(tmp_path.glob(".*.tmp")) == []


# ----------------------------------------------------------------------
# Resumable multi-trial baselines
# ----------------------------------------------------------------------


def trial_problem():
    space = build_space()

    def evaluate(arch):
        metrics = capacity_cost(arch)
        return 1.0 / metrics["step_time"], metrics

    reward = relu_reward([PerformanceObjective("step_time", 1.0, -0.5)])
    return space, evaluate, reward


class TestMultiTrialResume:
    @pytest.mark.parametrize("kill_at", [7, 13])
    def test_random_search_resume_is_bit_identical(self, tmp_path, kill_at):
        space, evaluate, reward = trial_problem()

        def build():
            return RandomSearch(space, evaluate, reward, num_trials=20, seed=5)

        reference = build().run()
        interrupted = build()
        store = CheckpointStore(tmp_path)
        for _ in range(kill_at):
            interrupted.step()
        store.save(kill_at, interrupted._checkpoint_payload())
        resumed = build().run(store=store)
        np.testing.assert_array_equal(reference.rewards(), resumed.rewards())
        assert reference.cache_hits == resumed.cache_hits
        assert reference.cache_misses == resumed.cache_misses

    def test_evolutionary_search_resume_is_bit_identical(self, tmp_path):
        space, evaluate, reward = trial_problem()
        config = EvolutionConfig(population_size=6, tournament_size=3, num_trials=24)

        def build():
            return EvolutionarySearch(space, evaluate, reward, config=config, seed=9)

        reference = build().run()
        interrupted = build()
        store = CheckpointStore(tmp_path)
        for _ in range(10):  # past the founder phase: population state matters
            interrupted.step()
        store.save(10, interrupted._checkpoint_payload())
        resumed = build().run(store=store)
        np.testing.assert_array_equal(reference.rewards(), resumed.rewards())
        ref_best = list(space.indices_of(reference.best.architecture))
        res_best = list(space.indices_of(resumed.best.architecture))
        assert ref_best == res_best

    def test_wrong_algorithm_checkpoint_rejected(self, tmp_path):
        space, evaluate, reward = trial_problem()
        random_search = RandomSearch(space, evaluate, reward, num_trials=8, seed=1)
        store = CheckpointStore(tmp_path)
        random_search.step()
        store.save(1, random_search._checkpoint_payload())
        evolution = EvolutionarySearch(
            space,
            evaluate,
            reward,
            config=EvolutionConfig(population_size=2, tournament_size=2, num_trials=8),
        )
        with pytest.raises(CheckpointError, match="RandomSearch"):
            evolution.run(store=store)

    def test_cacheless_search_rejects_cached_checkpoint(self, tmp_path):
        space, evaluate, reward = trial_problem()
        cached = RandomSearch(space, evaluate, reward, num_trials=8, seed=1)
        cached.step()
        store = CheckpointStore(tmp_path)
        store.save(1, cached._checkpoint_payload())
        cacheless = RandomSearch(
            space, evaluate, reward, num_trials=8, seed=1, use_cache=False
        )
        with pytest.raises(ValueError, match="use_cache=False"):
            cacheless.run(store=store)


# ----------------------------------------------------------------------
# Resumable front sweep
# ----------------------------------------------------------------------


class TestTraceFrontResume:
    def make_problem(self):
        space = build_space()

        def quality_fn(arch):
            return 1.0 - 0.003 * float(sum(space.indices_of(arch)))

        def perf_fn(arch):
            return {"train_step_time": capacity_cost(arch)["step_time"]}

        config = FrontSearchConfig(
            target_scales=(0.8, 1.2),
            search=SearchConfig(
                steps=15,
                num_cores=2,
                warmup_steps=3,
                record_candidates=False,
                seed=0,
            ),
        )
        return space, quality_fn, perf_fn, config

    def test_resume_at_scale_boundary_matches_uninterrupted(self, tmp_path):
        space, quality_fn, perf_fn, config = self.make_problem()
        reference = trace_front(space, quality_fn, perf_fn, config)

        # Measure how many quality calls the first scale consumes, then
        # crash a checkpointed sweep a few calls into the second scale.
        counting = {"n": 0}

        def counted(arch):
            counting["n"] += 1
            return quality_fn(arch)

        single = FrontSearchConfig(target_scales=(0.8,), search=config.search)
        trace_front(space, counted, perf_fn, single)
        scale_one_calls = counting["n"]

        store = CheckpointStore(tmp_path)
        calls = {"n": 0}

        def crashing(arch):
            calls["n"] += 1
            if calls["n"] > scale_one_calls + 2:
                raise InjectedCrash("injected mid-sweep crash")
            return quality_fn(arch)

        with pytest.raises(InjectedCrash):
            trace_front(space, crashing, perf_fn, config, checkpoint_store=store)
        assert store.latest() is not None and store.latest().step == 1

        resumed = trace_front(space, quality_fn, perf_fn, config, checkpoint_store=store)
        assert len(resumed.points) == len(reference.points)
        for ref_point, res_point in zip(reference.points, resumed.points):
            assert list(space.indices_of(ref_point.architecture)) == list(
                space.indices_of(res_point.architecture)
            )
            assert ref_point.quality == pytest.approx(res_point.quality)
        assert reference.eval_stats.cache_hits == resumed.eval_stats.cache_hits
        assert reference.eval_stats.cache_misses == resumed.eval_stats.cache_misses


# ----------------------------------------------------------------------
# Snapshot header
# ----------------------------------------------------------------------


class TestSnapshotHeader:
    @pytest.mark.parametrize(
        "algorithm", ["SingleStepSearch", "RandomSearch", "trace_front"]
    )
    def test_format_1_snapshot_rejected_by_every_driver(self, tmp_path, algorithm):
        store = CheckpointStore(tmp_path)
        store.save(1, {"format": 1, "algorithm": algorithm})
        space, evaluate, reward = trial_problem()
        resume = {
            "SingleStepSearch": lambda: run_with_checkpoints(build_search(), store),
            "RandomSearch": lambda: RandomSearch(
                space, evaluate, reward, num_trials=8
            ).run(store=store),
            "trace_front": lambda: trace_front(
                *TestTraceFrontResume().make_problem(), checkpoint_store=store
            ),
        }[algorithm]
        with pytest.raises(CheckpointError, match="format 1 .*expected format 2"):
            resume()

    def test_supernet_without_state_dict_names_the_missing_method(self):
        from repro.runtime.checkpoint import supernet_state

        class Bare:
            def parameters(self):
                return []

        with pytest.raises(CheckpointError, match=r"Bare has no state_dict\(\)"):
            supernet_state(Bare())
