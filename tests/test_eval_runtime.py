"""Tests for the memoized candidate-evaluation runtime."""

import random
import statistics
import time
from collections import OrderedDict

import numpy as np
import pytest

from repro.core import (
    ArchMetricsCache,
    EvalRuntime,
    MemoizedEvaluate,
    PerformanceObjective,
    RandomSearch,
    ReinforceController,
    SearchConfig,
    SingleStepSearch,
    SurrogateSuperNetwork,
    arch_key,
    relu_reward,
)
from repro.core.controller import CategoricalPolicy
from repro.data import NullSource, SingleStepPipeline
from repro.searchspace import Decision, SearchSpace


def small_space():
    return SearchSpace(
        "small",
        [Decision("a", (0, 1, 2)), Decision("b", ("x", "y")), Decision("c", (4, 8))],
    )


class CountingPerformanceFn:
    """Pure performance function that counts its invocations."""

    def __init__(self):
        self.calls = 0

    def __call__(self, arch):
        self.calls += 1
        return {"step_time": 1.0 + 0.1 * arch["a"], "model_size": float(arch["c"])}


class TestArchMetricsCache:
    def test_hit_after_put(self):
        cache = ArchMetricsCache(capacity=4)
        cache.put((0, 1), {"t": 1.0})
        assert cache.get((0, 1)) == {"t": 1.0}
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counted(self):
        cache = ArchMetricsCache(capacity=4)
        assert cache.get((9, 9)) is None
        assert cache.misses == 1

    def test_eviction_respects_capacity(self):
        cache = ArchMetricsCache(capacity=2)
        cache.put((0,), {"t": 0.0})
        cache.put((1,), {"t": 1.0})
        cache.put((2,), {"t": 2.0})  # evicts (0,)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert (0,) not in cache
        assert (1,) in cache and (2,) in cache

    def test_lru_order_get_refreshes(self):
        cache = ArchMetricsCache(capacity=2)
        cache.put((0,), {"t": 0.0})
        cache.put((1,), {"t": 1.0})
        cache.get((0,))  # (0,) becomes most recent
        cache.put((2,), {"t": 2.0})  # evicts (1,), not (0,)
        assert (0,) in cache and (1,) not in cache

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ArchMetricsCache(capacity=0)

    def test_hit_rate(self):
        cache = ArchMetricsCache(capacity=4)
        cache.put((0,), {})
        cache.get((0,))
        cache.get((1,))
        assert cache.hit_rate == pytest.approx(0.5)


def copying_plan(cache, keys):
    """``ArchMetricsCache.plan`` as it was while it copied the whole LRU
    per shard: the reference the O(shard) plan must agree with."""
    simulated = OrderedDict((key, None) for key in cache._entries)
    outcomes = []
    for key in keys:
        if key in simulated:
            simulated.move_to_end(key)
            outcomes.append(True)
        else:
            simulated[key] = None
            if len(simulated) > cache.capacity:
                simulated.popitem(last=False)
            outcomes.append(False)
    return outcomes


class TestPlanIsExactAndProportionalToTheShard:
    def test_agrees_with_the_copying_plan_on_random_cases(self):
        rng = random.Random(22)
        for case in range(3000):
            capacity = rng.randint(1, 8)
            universe = rng.randint(1, 12)
            cache = ArchMetricsCache(capacity)
            for _ in range(rng.randint(0, 24)):  # fills, hits and evictions
                key = (rng.randrange(universe),)
                if cache.get(key) is None:
                    cache.put(key, {})
            if case % 10 == 0:  # a cache holding more than it now may
                cache.capacity = max(1, capacity - rng.randint(0, 3))
            keys = [(rng.randrange(universe),) for _ in range(rng.randint(0, 16))]
            before = cache.export_state()
            assert cache.plan(keys) == copying_plan(cache, keys), (case, before, keys)
            assert cache.export_state() == before  # a pure simulation

    def test_cost_does_not_grow_with_the_cache(self):
        shard = [(-1 - i,) for i in range(4)]  # four new keys: four evictions when full

        def median_seconds(entries):
            cache = ArchMetricsCache(4096)
            for i in range(entries):
                cache.put((i,), {})
            samples = []
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(200):
                    cache.plan(shard)
                samples.append(time.perf_counter() - start)
            return statistics.median(samples)

        small, full = median_seconds(64), median_seconds(4096)
        assert full <= 3 * small, (small, full)


class TestEvalRuntime:
    def test_memoized_metrics_identical_to_uncached(self):
        space = small_space()
        fn = CountingPerformanceFn()
        cached = EvalRuntime(fn, space=space, use_cache=True)
        uncached = EvalRuntime(CountingPerformanceFn(), space=space, use_cache=False)
        rng = np.random.default_rng(0)
        archs = [space.sample(rng) for _ in range(50)]
        for arch in archs:
            assert cached.price(arch) == uncached.price(arch)
        # Far fewer evaluations than pricings: 3*2*2 = 12 possible archs.
        assert fn.calls <= 12 < 50
        assert cached.evaluations == fn.calls

    def test_price_uses_explicit_indices(self):
        space = small_space()
        fn = CountingPerformanceFn()
        runtime = EvalRuntime(fn, use_cache=True)  # no space: indices required
        arch = space.default_architecture()
        indices = space.indices_of(arch)
        first = runtime.price(arch, indices)
        second = runtime.price(arch, indices)
        assert first == second and fn.calls == 1
        with pytest.raises(ValueError, match="indices or a search space"):
            runtime.price(arch)

    def test_cached_metrics_are_copies(self):
        space = small_space()
        runtime = EvalRuntime(CountingPerformanceFn(), space=space)
        arch = space.default_architecture()
        runtime.price(arch)["step_time"] = -1.0  # mutate the returned dict
        assert runtime.price(arch)["step_time"] > 0  # cache unpolluted

    def test_stage_timing_accumulates(self):
        runtime = EvalRuntime(CountingPerformanceFn(), space=small_space())
        with runtime.timed("price"):
            pass
        with runtime.timed("price"):
            pass
        stats = runtime.stats()
        assert stats.stage_calls["price"] == 2
        assert stats.stage_seconds["price"] >= 0.0

    def test_stats_snapshot_and_summary(self):
        space = small_space()
        runtime = EvalRuntime(CountingPerformanceFn(), space=space, cache_capacity=8)
        arch = space.default_architecture()
        runtime.price(arch)
        runtime.price(arch)
        stats = runtime.stats()
        assert stats.cache_enabled
        assert (stats.cache_hits, stats.cache_misses) == (1, 1)
        assert stats.hit_rate == pytest.approx(0.5)
        assert stats.cache_capacity == 8 and stats.cache_entries == 1
        assert "hits" in stats.summary()

    def test_reset_counters_keeps_cache_contents(self):
        space = small_space()
        fn = CountingPerformanceFn()
        runtime = EvalRuntime(fn, space=space)
        runtime.price(space.default_architecture())
        runtime.reset_counters()
        assert runtime.stats().cache_misses == 0
        runtime.price(space.default_architecture())
        assert fn.calls == 1  # still served from the retained entry
        assert runtime.stats().cache_hits == 1

    def test_arch_key_canonical(self):
        assert arch_key(np.array([2, 0, 1], dtype=np.int64)) == (2, 0, 1)


class TestBatchedSampling:
    def test_batched_matches_per_core_sampling(self):
        """One vectorized draw reproduces the per-core loop, draw for draw."""
        space = small_space()
        policy = CategoricalPolicy(space)
        rng = np.random.default_rng(3)
        for _ in range(5):  # push the policy off uniform
            _, idx = policy.sample(rng)
            policy.reinforce_update([(idx, float(rng.normal()))], 0.4)
        seq_rng = np.random.default_rng(11)
        sequential = [policy.sample(seq_rng) for _ in range(7)]
        batched = policy.sample_batch(np.random.default_rng(11), 7)
        for (arch_s, idx_s), (arch_b, idx_b) in zip(sequential, batched):
            assert arch_s == arch_b
            np.testing.assert_array_equal(idx_s, idx_b)

    def test_controller_sample_many_deterministic(self):
        a = ReinforceController(small_space(), seed=5).sample_many(6)
        b = ReinforceController(small_space(), seed=5).sample_many(6)
        for (arch_a, _), (arch_b, _) in zip(a, b):
            assert arch_a == arch_b

    def test_sample_many_equals_repeated_sample(self):
        """Batched and sequential controller draws share one rng stream."""
        batched = ReinforceController(small_space(), seed=2).sample_many(5)
        sequential_ctrl = ReinforceController(small_space(), seed=2)
        sequential = [sequential_ctrl.sample() for _ in range(5)]
        for (arch_a, _), (arch_b, _) in zip(batched, sequential):
            assert arch_a == arch_b

    def test_count_validated(self):
        with pytest.raises(ValueError):
            CategoricalPolicy(small_space()).sample_batch(np.random.default_rng(0), 0)


class TestEntropyBonusScaling:
    def test_entropy_bonus_invariant_to_shard_size(self):
        """The bonus is a per-update term, not a per-sample one."""
        target = np.array([0, 0, 0])
        updates = {}
        for shard in (1, 4):
            policy = CategoricalPolicy(small_space())
            # zero-advantage samples: only the entropy term moves logits
            policy.reinforce_update(
                [(target, 0.0)] * shard, learning_rate=0.3, entropy_coef=0.5
            )
            updates[shard] = [logit.copy() for logit in policy.logits]
        for a, b in zip(updates[1], updates[4]):
            np.testing.assert_allclose(a, b)

    def test_entropy_gradient_zero_at_uniform(self):
        """Uniform is the entropy maximum: the bonus must not move it."""
        policy = CategoricalPolicy(small_space())
        policy.reinforce_update(
            [(np.array([0, 0, 0]), 0.0)], learning_rate=0.5, entropy_coef=1.0
        )
        for logit in policy.logits:
            np.testing.assert_allclose(logit, logit[0])  # still symmetric

    def test_entropy_bonus_raises_entropy_of_peaked_policy(self):
        policy = CategoricalPolicy(small_space())
        for logit in policy.logits:
            logit[0] = 3.0  # sharply peaked
        before = policy.entropy()
        for _ in range(20):
            policy.reinforce_update(
                [(np.array([0, 0, 0]), 0.0)], learning_rate=0.3, entropy_coef=0.5
            )
        assert policy.entropy() > before

    def test_single_combined_step_from_one_snapshot(self):
        """The applied update equals the analytic combined gradient."""
        policy = CategoricalPolicy(small_space())
        rng = np.random.default_rng(0)
        for logit in policy.logits:
            logit += rng.normal(size=logit.shape)
        probs = [p.copy() for p in policy.probabilities()]
        before = [logit.copy() for logit in policy.logits]
        lr, coef, adv = 0.2, 0.3, 1.7
        target = np.array([1, 0, 1])
        policy.reinforce_update([(target, adv)], learning_rate=lr, entropy_coef=coef)
        for d, (logit, p) in enumerate(zip(policy.logits, probs)):
            onehot = np.zeros_like(p)
            onehot[target[d]] = 1.0
            log_p = np.log(p + 1e-12)
            entropy = -(p * log_p).sum()
            expected = before[d] + lr * (
                adv * (onehot - p) + coef * (-p * (log_p + entropy))
            )
            np.testing.assert_allclose(logit, expected, rtol=1e-12)


def flat_quality(arch):
    return 0.5


def run_search(use_cache, fn, steps=20, seed=0):
    space = small_space()
    return SingleStepSearch(
        space=space,
        supernet=SurrogateSuperNetwork(flat_quality),
        pipeline=SingleStepPipeline(NullSource().next_batch),
        reward_fn=relu_reward([PerformanceObjective("step_time", 1.0, -0.5)]),
        performance_fn=fn,
        config=SearchConfig(
            steps=steps, num_cores=4, warmup_steps=2, seed=seed, use_cache=use_cache
        ),
    ).run()


class TestSearchWithRuntime:
    def test_cache_on_and_off_agree(self):
        """Memoization must not change any search outcome."""
        on = run_search(True, CountingPerformanceFn())
        off = run_search(False, CountingPerformanceFn())
        assert on.final_architecture == off.final_architecture
        assert [s.mean_reward for s in on.history] == [
            s.mean_reward for s in off.history
        ]
        for step_on, step_off in zip(on.history, off.history):
            for a, b in zip(step_on.candidates, step_off.candidates):
                assert a.metrics == b.metrics

    def test_cache_saves_evaluations(self):
        fn_on, fn_off = CountingPerformanceFn(), CountingPerformanceFn()
        on = run_search(True, fn_on, steps=40)
        run_search(False, fn_off, steps=40)
        assert fn_off.calls == 40 * 4
        assert fn_on.calls <= 12  # at most one per distinct architecture
        assert on.eval_stats.cache_hits == 40 * 4 - fn_on.calls

    def test_stats_disabled_cache(self):
        result = run_search(False, CountingPerformanceFn())
        assert not result.eval_stats.cache_enabled
        assert result.eval_stats.cache_hits == 0
        assert result.eval_stats.evaluations == 20 * 4

    def test_stage_timings_cover_all_stages(self):
        result = run_search(True, CountingPerformanceFn())
        for stage in ("sample", "score", "price", "policy_update", "weight_update"):
            assert stage in result.eval_stats.stage_seconds
            assert result.eval_stats.stage_calls[stage] > 0


class TestMemoizedEvaluate:
    def test_multitrial_cache_counts_duplicates(self):
        space = small_space()
        calls = []

        def evaluate(arch):
            calls.append(arch)
            return 0.5, {"latency": 1.0 + 0.1 * arch["a"]}

        reward = relu_reward([PerformanceObjective("latency", 2.0, -1.0)])
        result = RandomSearch(
            space, evaluate, reward, num_trials=100, seed=0
        ).run()
        assert len(result.trials) == 100
        assert len(calls) <= 12  # one real trial per distinct arch
        assert result.cache_hits == 100 - len(calls)
        assert result.cache_hits + result.cache_misses == 100

    def test_disabled_cache_calls_through(self):
        space = small_space()
        calls = []

        def evaluate(arch):
            calls.append(arch)
            return 0.5, {"latency": 1.0}

        reward = relu_reward([])
        RandomSearch(
            space, evaluate, reward, num_trials=30, seed=0, use_cache=False
        ).run()
        assert len(calls) == 30

    def test_memoized_evaluate_returns_same_values(self):
        space = small_space()
        memo = MemoizedEvaluate(space, lambda a: (0.1 * a["a"], {"t": float(a["c"])}))
        arch = space.default_architecture()
        assert memo(arch) == memo(arch)
        assert memo.cache.hits == 1


class TestPriceManyEvictionPressure:
    """Asserts batched pricing is sequentially equivalent under eviction.

    With more distinct keys in one shard than the cache has capacity,
    ``price_many`` used to disagree with a sequential ``price`` loop on
    counters and final LRU contents.  The plan/replay implementation
    (see :meth:`ArchMetricsCache.plan`) fixed that: counters,
    evaluations, results, and LRU contents now match the sequential
    order exactly, in every regime.
    """

    SHARD = [0, 1, 2, 0]  # four draws, three distinct keys, one repeat

    @staticmethod
    def _arch(i):
        return {"a": i % 3, "b": "x", "c": 4}

    def _runtime(self, capacity):
        fn = CountingPerformanceFn()
        return EvalRuntime(fn, cache_capacity=capacity), fn

    def _drawn(self):
        return [(self._arch(i), (i,)) for i in self.SHARD]

    def _assert_equivalent(self, capacity):
        batched, batched_fn = self._runtime(capacity=capacity)
        sequential, sequential_fn = self._runtime(capacity=capacity)
        batch_results = batched.price_many(self._drawn())
        loop_results = [
            sequential.price(arch, indices=indices)
            for arch, indices in self._drawn()
        ]
        assert batch_results == loop_results
        b_cache, s_cache = batched.cache, sequential.cache
        assert (b_cache.hits, b_cache.misses, b_cache.evictions) == (
            s_cache.hits,
            s_cache.misses,
            s_cache.evictions,
        )
        assert batched_fn.calls == sequential_fn.calls
        assert batched.evaluations == sequential.evaluations
        assert b_cache.export_state()["entries"] == s_cache.export_state()["entries"]
        return batched, batched_fn

    def test_batched_matches_sequential_under_eviction_pressure(self):
        runtime, fn = self._assert_equivalent(capacity=2)
        cache = runtime.cache
        # By the time the duplicate (0,) arrives it has been evicted, so
        # both orders pay a fourth miss and evaluation.
        assert (cache.hits, cache.misses, cache.evictions) == (0, 4, 2)
        assert fn.calls == 4 and runtime.evaluations == 4
        assert arch_key((1,)) not in cache
        assert arch_key((2,)) in cache and arch_key((0,)) in cache

    def test_plan_predicts_sequential_outcomes_without_mutation(self):
        runtime, _ = self._runtime(capacity=2)
        keys = [arch_key((i,)) for i in self.SHARD]
        assert runtime.cache.plan(keys) == [False, False, False, False]
        # Planning is a pure simulation: nothing was inserted or counted.
        assert len(runtime.cache) == 0
        assert (runtime.cache.hits, runtime.cache.misses) == (0, 0)
        # With room for the whole shard the duplicate is a planned hit.
        roomy, _ = self._runtime(capacity=4)
        assert roomy.cache.plan(keys) == [False, False, False, True]

    def test_orders_agree_when_capacity_covers_shard(self):
        batched, batched_fn = self._runtime(capacity=4)
        sequential, sequential_fn = self._runtime(capacity=4)
        batch_results = batched.price_many(self._drawn())
        loop_results = [
            sequential.price(arch, indices=indices)
            for arch, indices in self._drawn()
        ]
        assert batch_results == loop_results
        for runtime, fn in ((batched, batched_fn), (sequential, sequential_fn)):
            cache = runtime.cache
            assert (cache.hits, cache.misses, cache.evictions) == (1, 3, 0)
            assert fn.calls == 3 and runtime.evaluations == 3
