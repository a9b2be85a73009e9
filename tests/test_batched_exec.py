"""Batched-vs-sequential equivalence for the shard execution layer.

Every batched path must be indistinguishable from the sequential path
it replaces: ``price_many`` vs. looped ``price`` (metrics *and* cache
state), grouped supernet passes vs. per-core passes (values, gradients,
and whole-search trajectories).
"""

import numpy as np
import pytest

from repro.core import (
    BatchPerformanceFn,
    EvalRuntime,
    PerformanceObjective,
    SearchConfig,
    SingleStepSearch,
    SurrogateSuperNetwork,
    group_unique_architectures,
    relu_reward,
)
from repro.data import CtrTaskConfig, CtrTeacher, NullSource, SingleStepPipeline
from repro.perfmodel import ArchitectureEncoder, PerformanceModel
from repro.searchspace import Decision, SearchSpace, DlrmSpaceConfig, dlrm_search_space
from repro.supernet import DlrmSuperNetwork, DlrmSupernetConfig


def small_space():
    return SearchSpace(
        "small",
        [Decision("a", (0, 1, 2)), Decision("b", ("x", "y")), Decision("c", (4, 8))],
    )


class CountingPerformanceFn:
    """Pure per-architecture performance function counting invocations."""

    def __init__(self):
        self.calls = 0

    def __call__(self, arch):
        self.calls += 1
        return {"step_time": 1.0 + 0.1 * arch["a"], "model_size": float(arch["c"])}


class CountingBatchFn(CountingPerformanceFn):
    """Adds the ``price_batch`` vectorized entry point."""

    def __init__(self):
        super().__init__()
        self.batch_calls = 0

    def price_batch(self, archs):
        self.batch_calls += 1
        return [CountingPerformanceFn.__call__(self, a) for a in archs]


def shard_with_duplicates(space, count=20, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (arch, space.indices_of(arch))
        for arch in (space.sample(rng) for _ in range(count))
    ]


class TestPriceMany:
    def test_matches_looped_price(self):
        """Same metrics, same counters, same cache contents as a loop."""
        space = small_space()
        drawn = shard_with_duplicates(space, count=30)
        batched_rt = EvalRuntime(CountingPerformanceFn(), space=space)
        looped_rt = EvalRuntime(CountingPerformanceFn(), space=space)
        batched = batched_rt.price_many(drawn)
        looped = [looped_rt.price(arch, idx) for arch, idx in drawn]
        assert batched == looped
        bs, ls = batched_rt.stats(), looped_rt.stats()
        assert (bs.cache_hits, bs.cache_misses) == (ls.cache_hits, ls.cache_misses)
        assert bs.evaluations == ls.evaluations
        assert bs.candidates_priced == ls.candidates_priced == 30
        for arch, idx in drawn:
            key = tuple(int(i) for i in idx)
            assert key in batched_rt.cache and key in looped_rt.cache

    def test_in_shard_duplicates_count_as_hits(self):
        """A duplicate of a cold miss is the hit the loop would record."""
        space = small_space()
        arch = space.default_architecture()
        idx = space.indices_of(arch)
        fn = CountingPerformanceFn()
        runtime = EvalRuntime(fn, space=space)
        results = runtime.price_many([(arch, idx), (arch, idx), (arch, idx)])
        assert results[0] == results[1] == results[2]
        assert fn.calls == 1
        stats = runtime.stats()
        assert (stats.cache_hits, stats.cache_misses) == (2, 1)

    def test_cache_disabled_evaluates_everything(self):
        space = small_space()
        drawn = shard_with_duplicates(space, count=15)
        fn = CountingPerformanceFn()
        runtime = EvalRuntime(fn, space=space, use_cache=False)
        results = runtime.price_many(drawn)
        assert fn.calls == 15 and runtime.evaluations == 15
        reference = [CountingPerformanceFn()(arch) for arch, _ in drawn]
        assert results == reference

    def test_batch_fn_used_once_for_all_misses(self):
        space = small_space()
        drawn = shard_with_duplicates(space, count=25)
        batch_fn, plain_fn = CountingBatchFn(), CountingPerformanceFn()
        via_batch = EvalRuntime(batch_fn, space=space).price_many(drawn)
        via_fallback = EvalRuntime(plain_fn, space=space).price_many(drawn)
        assert via_batch == via_fallback
        assert batch_fn.batch_calls == 1  # one vectorized call, all misses
        assert batch_fn.calls == plain_fn.calls  # same architectures evaluated

    def test_batch_fn_wrong_length_rejected(self):
        space = small_space()

        class Broken(CountingBatchFn):
            def price_batch(self, archs):
                return []

        runtime = EvalRuntime(Broken(), space=space)
        with pytest.raises(ValueError, match="price_batch returned"):
            runtime.price_many(shard_with_duplicates(space, count=3))

    def test_needs_indices_or_space(self):
        space = small_space()
        runtime = EvalRuntime(CountingPerformanceFn())  # no space
        with pytest.raises(ValueError, match="indices or a search space"):
            runtime.price_many([(space.default_architecture(), None)])

    def test_results_are_copies(self):
        space = small_space()
        runtime = EvalRuntime(CountingPerformanceFn(), space=space)
        arch = space.default_architecture()
        runtime.price_many([(arch, None)])[0]["step_time"] = -1.0
        assert runtime.price_many([(arch, None)])[0]["step_time"] > 0

    def test_throughput_and_per_call_means_surface_in_summary(self):
        space = small_space()
        runtime = EvalRuntime(CountingPerformanceFn(), space=space)
        with runtime.timed("price"):
            runtime.price_many(shard_with_duplicates(space, count=8))
        stats = runtime.stats()
        assert stats.candidates_priced == 8
        assert stats.price_throughput > 0
        assert stats.stage_mean_seconds("price") == pytest.approx(
            stats.stage_seconds["price"]
        )
        assert "candidates/s priced" in stats.summary()
        assert "ms/call" in stats.summary()


class TestPerformanceModelBatch:
    def test_predict_many_matches_predict(self):
        space = dlrm_search_space(DlrmSpaceConfig(num_tables=2, num_dense_stacks=2))
        model = PerformanceModel(
            ArchitectureEncoder(space),
            hidden_sizes=(16, 16),
            size_fn=lambda arch: 123.0,
            seed=0,
        )
        rng = np.random.default_rng(0)
        archs = [space.sample(rng) for _ in range(12)]
        many = model.predict_many(archs)
        for arch, metrics in zip(archs, many):
            single = model.predict(arch)
            assert metrics.keys() == single.keys()
            for key in single:
                assert metrics[key] == pytest.approx(single[key], rel=1e-12)

    def test_model_is_a_batch_performance_fn(self):
        space = dlrm_search_space(DlrmSpaceConfig(num_tables=2, num_dense_stacks=2))
        model = PerformanceModel(ArchitectureEncoder(space), hidden_sizes=(8,))
        assert isinstance(model, BatchPerformanceFn)
        runtime = EvalRuntime(model, space=space)
        assert runtime.batch_fn is not None


class TestGroupUniqueArchitectures:
    def test_groups_positions_in_first_seen_order(self):
        space = small_space()
        a = space.default_architecture()
        b = space.sample(np.random.default_rng(4))
        drawn = [
            (a, space.indices_of(a)),
            (b, space.indices_of(b)),
            (a, space.indices_of(a)),
            (a, space.indices_of(a)),
        ]
        if a == b:  # pathological draw; regenerate deterministically
            pytest.skip("sampled the default architecture")
        assert group_unique_architectures(drawn) == [[0, 2, 3], [1]]

    def test_all_positions_covered_exactly_once(self):
        space = small_space()
        drawn = shard_with_duplicates(space, count=17, seed=3)
        groups = group_unique_architectures(drawn)
        flat = sorted(position for group in groups for position in group)
        assert flat == list(range(17))


def ctr_batches(num_tables=2, count=3, batch_size=16, seed=0):
    teacher = CtrTeacher(
        CtrTaskConfig(num_tables=num_tables, batch_size=batch_size, seed=seed)
    )
    return [teacher.next_batch() for _ in range(count)]


class TestStackedScoring:
    def test_quality_many_matches_per_batch_quality(self):
        supernet = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=2, seed=0))
        space = dlrm_search_space(DlrmSpaceConfig(num_tables=2, num_dense_stacks=2))
        arch = space.default_architecture()
        batches = ctr_batches(count=4)
        stacked = supernet.quality_many(
            arch, [b.inputs for b in batches], [b.labels for b in batches]
        )
        sequential = [
            supernet.quality(arch, b.inputs, b.labels) for b in batches
        ]
        np.testing.assert_allclose(stacked, sequential, rtol=1e-12)

    def test_loss_many_matches_mean_of_batch_losses(self):
        supernet = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=2, seed=0))
        space = dlrm_search_space(DlrmSpaceConfig(num_tables=2, num_dense_stacks=2))
        arch = space.default_architecture()
        batches = ctr_batches(count=3)
        stacked = supernet.loss_many(
            arch, [b.inputs for b in batches], [b.labels for b in batches]
        )
        per_batch = [
            supernet.loss(arch, b.inputs, b.labels).item() for b in batches
        ]
        assert stacked.item() == pytest.approx(np.mean(per_batch), rel=1e-9)

    def test_loss_many_gradients_match_sequential_accumulation(self):
        """One scaled stacked backward == the per-core gradient sum."""
        space = dlrm_search_space(DlrmSpaceConfig(num_tables=2, num_dense_stacks=2))
        arch = space.default_architecture()
        batches = ctr_batches(count=4)
        num_cores = len(batches)

        grouped_net = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=2, seed=0))
        grouped_net.zero_grad()
        loss = grouped_net.loss_many(
            arch, [b.inputs for b in batches], [b.labels for b in batches]
        )
        (loss * (num_cores / num_cores)).backward()

        sequential_net = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=2, seed=0))
        sequential_net.zero_grad()
        for b in batches:
            seq_loss = sequential_net.loss(arch, b.inputs, b.labels)
            (seq_loss * (1.0 / num_cores)).backward()

        touched = 0
        for p_grouped, p_sequential in zip(
            grouped_net.parameters(), sequential_net.parameters()
        ):
            # Parameters of unused candidates (e.g. non-selected vocab
            # tables) receive no gradient on either path.
            assert (p_grouped.grad is None) == (p_sequential.grad is None)
            if p_grouped.grad is not None:
                touched += 1
                np.testing.assert_allclose(
                    p_grouped.grad, p_sequential.grad, rtol=1e-9, atol=1e-12
                )
        assert touched > 0

    def test_unequal_batch_sizes_fall_back_to_per_batch_losses(self):
        supernet = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=2, seed=0))
        space = dlrm_search_space(DlrmSpaceConfig(num_tables=2, num_dense_stacks=2))
        arch = space.default_architecture()
        big = ctr_batches(count=1, batch_size=24)[0]
        small = ctr_batches(count=1, batch_size=8, seed=1)[0]
        mixed = supernet.loss_many(
            arch, [big.inputs, small.inputs], [big.labels, small.labels]
        )
        expected = np.mean(
            [
                supernet.loss(arch, big.inputs, big.labels).item(),
                supernet.loss(arch, small.inputs, small.labels).item(),
            ]
        )
        assert mixed.item() == pytest.approx(expected, rel=1e-9)


class PerCoreOnly:
    """The per-core half of a supernet's protocol and nothing else: not
    a ``StackedScoring``, so the engine scores and trains it one core at
    a time — the reference the grouped passes must reproduce."""

    def __init__(self, supernet):
        for name in (
            "quality",
            "loss",
            "parameters",
            "zero_grad",
            "state_dict",
            "load_state_dict",
        ):
            setattr(self, name, getattr(supernet, name))


def dlrm_search(per_core, steps=6, seed=0):
    num_tables = 2
    space = dlrm_search_space(
        DlrmSpaceConfig(num_tables=num_tables, num_dense_stacks=2)
    )
    teacher = CtrTeacher(
        CtrTaskConfig(num_tables=num_tables, batch_size=16, seed=seed)
    )

    def performance_fn(arch):
        return {"step_time": 1.0 + 0.05 * arch["emb0/width_delta"]}

    supernet = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=num_tables, seed=seed))
    return SingleStepSearch(
        space=space,
        supernet=PerCoreOnly(supernet) if per_core else supernet,
        pipeline=SingleStepPipeline(teacher.next_batch),
        reward_fn=relu_reward([PerformanceObjective("step_time", 1.0, -0.5)]),
        performance_fn=performance_fn,
        config=SearchConfig(
            steps=steps,
            num_cores=4,
            warmup_steps=2,
            seed=seed,
        ),
    ).run()


class TestGroupedSearchEquivalence:
    def test_grouped_and_ungrouped_searches_agree(self):
        """Grouping is a pure execution strategy: same StepRecords."""
        grouped = dlrm_search(per_core=False)
        ungrouped = dlrm_search(per_core=True)
        assert grouped.final_architecture == ungrouped.final_architecture
        np.testing.assert_allclose(
            [r.mean_quality for r in grouped.history],
            [r.mean_quality for r in ungrouped.history],
            atol=1e-9,
        )
        np.testing.assert_allclose(
            [r.mean_reward for r in grouped.history],
            [r.mean_reward for r in ungrouped.history],
            atol=1e-9,
        )
        np.testing.assert_allclose(
            [r.policy_entropy for r in grouped.history],
            [r.policy_entropy for r in ungrouped.history],
            atol=1e-9,
        )

    def test_fallback_supernet_keeps_exact_rng_stream(self):
        """Without quality_many the per-core order (and its noise rng
        stream) must be untouched: every candidate's quality is the draw
        a surrogate scoring them one after another, in core order, makes."""

        def surrogate():
            return SurrogateSuperNetwork(
                lambda arch: 0.4 + 0.1 * arch["a"], noise_sigma=0.05, seed=0
            )

        reward_fn = relu_reward([PerformanceObjective("step_time", 1.0, -0.5)])
        result = SingleStepSearch(
            space=small_space(),
            supernet=surrogate(),
            pipeline=SingleStepPipeline(NullSource().next_batch),
            reward_fn=reward_fn,
            performance_fn=CountingPerformanceFn(),
            config=SearchConfig(steps=10, num_cores=4, warmup_steps=2, seed=0),
        ).run()

        sequential = surrogate()
        qualities = [
            [sequential.quality(c.architecture, None, None) for c in r.candidates]
            for r in result.history
        ]
        assert [r.mean_quality for r in result.history] == [
            float(np.mean(step)) for step in qualities
        ]
        assert [r.mean_reward for r in result.history] == [
            float(np.mean([reward_fn(q, c.metrics) for q, c in zip(step, r.candidates)]))
            for step, r in zip(qualities, result.history)
        ]


class TestCliPerfmodel:
    def test_perfmodel_command_runs(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "perfmodel",
                    "--samples",
                    "40",
                    "--tables",
                    "2",
                    "--epochs",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "NRMSE" in out
