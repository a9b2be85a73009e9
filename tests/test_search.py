"""Integration tests for the single-step and TuNAS search algorithms."""

import numpy as np
import pytest

from repro.core import (
    H2ONas,
    PerformanceObjective,
    SearchConfig,
    SingleStepSearch,
    TunasSearch,
    absolute_reward,
    relu_reward,
)
from repro.data import CtrTaskConfig, CtrTeacher, SingleStepPipeline, TwoStreamPipeline
from repro.searchspace import DlrmSpaceConfig, dlrm_search_space
from repro.supernet import DlrmSuperNetwork, DlrmSupernetConfig, WIDTH_INCREMENT

from .test_searchspace import assert_full_assignment


NUM_TABLES = 2


def build_space():
    return dlrm_search_space(DlrmSpaceConfig(num_tables=NUM_TABLES, num_dense_stacks=2))


def build_supernet(seed=0):
    return DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES, seed=seed))


def capacity_cost(arch):
    """Synthetic step-time: grows with embedding/MLP capacity."""
    cost = 1.0
    for t in range(NUM_TABLES):
        cost += 0.05 * arch[f"emb{t}/width_delta"]
        cost += 0.2 * (arch[f"emb{t}/vocab_scale"] - 1.0)
    for s in range(2):
        cost += 0.04 * arch[f"dense{s}/width_delta"]
        cost += 0.05 * arch[f"dense{s}/depth_delta"]
        cost += 0.3 * (arch[f"dense{s}/low_rank"] - 0.5)
    return {"step_time": max(0.1, cost), "model_size": max(0.1, cost)}


def make_teacher(seed=0):
    return CtrTeacher(CtrTaskConfig(num_tables=NUM_TABLES, batch_size=32, seed=seed))


class TestSingleStepSearch:
    def test_runs_and_returns_valid_architecture(self):
        space = build_space()
        search = SingleStepSearch(
            space=space,
            supernet=build_supernet(),
            pipeline=SingleStepPipeline(make_teacher().next_batch),
            reward_fn=relu_reward([PerformanceObjective("step_time", 1.0, -0.5)]),
            performance_fn=capacity_cost,
            config=SearchConfig(steps=12, num_cores=2, warmup_steps=3, seed=0),
        )
        result = search.run()
        assert_full_assignment(space, result.final_architecture)
        assert len(result.history) == 12

    def test_every_batch_used_once_policy_first(self):
        """The search obeys the pipeline protocol: steps x cores batches."""
        pipeline = SingleStepPipeline(make_teacher().next_batch)
        search = SingleStepSearch(
            space=build_space(),
            supernet=build_supernet(),
            pipeline=pipeline,
            reward_fn=relu_reward([]),
            performance_fn=lambda arch: {},
            config=SearchConfig(steps=5, num_cores=3, warmup_steps=1),
        )
        result = search.run()
        assert result.batches_used == 5 * 3
        assert pipeline.batches_issued == 15

    def test_tight_latency_target_pushes_towards_small_models(self):
        """With flat quality, a tight target should select cheap candidates."""
        space = build_space()
        search = SingleStepSearch(
            space=space,
            supernet=build_supernet(),
            pipeline=SingleStepPipeline(make_teacher().next_batch),
            reward_fn=relu_reward(
                [PerformanceObjective("step_time", 0.5, beta=-4.0)]
            ),
            performance_fn=capacity_cost,
            config=SearchConfig(
                steps=120, num_cores=4, warmup_steps=5, policy_lr=0.4, seed=1
            ),
        )
        result = search.run()
        best_cost = capacity_cost(result.final_architecture)["step_time"]
        default_cost = capacity_cost(space.default_architecture())["step_time"]
        assert best_cost < default_cost

    def test_history_records_candidates(self):
        search = SingleStepSearch(
            space=build_space(),
            supernet=build_supernet(),
            pipeline=SingleStepPipeline(make_teacher().next_batch),
            reward_fn=relu_reward([]),
            performance_fn=lambda arch: {},
            config=SearchConfig(steps=3, num_cores=2, warmup_steps=0),
        )
        candidates = [c for step in search.run().history for c in step.candidates]
        assert len(candidates) == 6
        for candidate in candidates:
            assert 0.0 <= candidate.quality <= 1.0

    def test_record_candidates_off(self):
        search = SingleStepSearch(
            space=build_space(),
            supernet=build_supernet(),
            pipeline=SingleStepPipeline(make_teacher().next_batch),
            reward_fn=relu_reward([]),
            performance_fn=lambda arch: {},
            config=SearchConfig(steps=3, num_cores=2, record_candidates=False),
        )
        assert all(step.candidates == [] for step in search.run().history)

    def test_entropy_trace_monotone_overall(self):
        """Policy entropy should drop as the search converges."""
        search = SingleStepSearch(
            space=build_space(),
            supernet=build_supernet(),
            pipeline=SingleStepPipeline(make_teacher().next_batch),
            reward_fn=relu_reward([PerformanceObjective("step_time", 0.5, -4.0)]),
            performance_fn=capacity_cost,
            config=SearchConfig(steps=80, num_cores=4, warmup_steps=5, seed=2),
        )
        entropies = search.run().entropies()
        assert entropies[-1] < entropies[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(steps=0)
        with pytest.raises(ValueError):
            SearchConfig(num_cores=0)
        with pytest.raises(ValueError):
            SearchConfig(warmup_steps=-1)


class TestTunasSearch:
    def test_runs_on_two_streams(self):
        space = build_space()
        teacher = make_teacher()
        pipeline = TwoStreamPipeline(teacher.next_batch, train_batches=8, valid_batches=4)
        search = TunasSearch(
            space=space,
            supernet=build_supernet(),
            pipeline=pipeline,
            reward_fn=absolute_reward([PerformanceObjective("step_time", 1.0, -0.5)]),
            performance_fn=capacity_cost,
            config=SearchConfig(steps=20, num_cores=2, warmup_steps=3),
        )
        result = search.run()
        assert_full_assignment(space, result.final_architecture)
        assert pipeline.train_reuses >= 1  # data reuse, unlike single-step

    def test_uses_fixed_dataset(self):
        teacher = make_teacher()
        pipeline = TwoStreamPipeline(teacher.next_batch, train_batches=4, valid_batches=2)
        search = TunasSearch(
            space=build_space(),
            supernet=build_supernet(),
            pipeline=pipeline,
            reward_fn=relu_reward([]),
            performance_fn=lambda arch: {},
            config=SearchConfig(steps=10, num_cores=2),
        )
        result = search.run()
        assert result.batches_used == 6  # train + valid splits only


class TestH2ONasFacade:
    def test_end_to_end(self):
        space = build_space()
        nas = H2ONas(
            space=space,
            supernet=build_supernet(),
            batch_source=make_teacher().next_batch,
            performance_fn=capacity_cost,
            objectives=[PerformanceObjective("step_time", 1.0, -1.0)],
            config=SearchConfig(steps=8, num_cores=2, warmup_steps=2),
        )
        result = nas.search()
        assert_full_assignment(space, result.final_architecture)
        held_out = make_teacher(seed=77).next_batch()
        q = nas.evaluate(result.final_architecture, held_out)
        assert 0.0 <= q <= 1.0

    def test_invalid_reward_kind(self):
        with pytest.raises(ValueError):
            H2ONas(
                space=build_space(),
                supernet=build_supernet(),
                batch_source=make_teacher().next_batch,
                performance_fn=capacity_cost,
                objectives=[],
                reward_kind="softmax",
            )
