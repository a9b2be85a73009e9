"""Evaluation-runtime benchmark: memoized candidate pricing.

Late in a single-step search the policy has converged, so most of the
``num_cores`` candidates sampled each step repeat architectures the
search has already priced.  Re-running the analytical timing simulator
for each repeat is pure waste — the metrics are deterministic in the
decision indices.  The :class:`~repro.core.EvalRuntime` memoizes
pricing by canonical index key; this benchmark measures the resulting
candidate-pricing throughput (candidates priced per second of
price-stage wall time) on a converged-policy workload and asserts the
cache delivers at least a 2x improvement.

What a miss costs is the other half: lowering the candidate to an op
graph and walking it once.  That walk must stay linear in graph size —
a chain of 4N ops may cost at most 6x a chain of N to build and
simulate (the networkx-backed IR, which re-proved acyclicity on every
``add``, read 13.7x here).

**Batched pricing**: a cold-cache shard priced through
``EvalRuntime.price_many`` — one ``encode_batch`` + one MLP forward
for every miss — against the same shard priced candidate-by-candidate
through ``EvalRuntime.price``.  The paper's O(ms) shard pricing
depends on this shape; acceptance is >= 3x price-stage throughput.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.analysis import format_table
from repro.core import (
    EvalRuntime,
    SearchConfig,
    SingleStepSearch,
    SurrogateSuperNetwork,
    arch_key,
    relu_reward,
    PerformanceObjective,
)
from repro.data import NullSource, SingleStepPipeline
from repro.graph import OpGraph, ops
from repro.hardware import TPU_V4, simulate
from repro.models import baseline_production_dlrm
from repro.models.timing import DlrmTimingHarness
from repro.perfmodel import ArchitectureEncoder, PerformanceModel
from repro.searchspace import DlrmSpaceConfig, dlrm_search_space

from .common import emit, emit_json

pytestmark = pytest.mark.slow

NUM_TABLES = 3
STEPS = 60
CORES = 8
CONVERGED_LOGIT = 7.0  # sharply peaks every decision, as late in a search
CHAIN_OPS = 200  # N of the scaling contract
CHAIN_MAX_RATIO = 6.0  # cost(4N) / cost(N); 4.0 is perfectly linear
SHARD_CANDIDATES = 1024  # cold-cache shard size for the pricing measurement


def build_search(use_cache):
    space = dlrm_search_space(
        DlrmSpaceConfig(num_tables=NUM_TABLES, num_dense_stacks=2)
    )
    harness = DlrmTimingHarness(baseline_production_dlrm(num_tables=NUM_TABLES), seed=0)

    def performance_fn(arch):
        train_time, serve_time = harness.simulate(arch)
        return {"train_step_time": train_time, "serving_latency": serve_time}

    base_time = performance_fn(space.default_architecture())["train_step_time"]
    search = SingleStepSearch(
        space=space,
        supernet=SurrogateSuperNetwork(lambda arch: 0.5, seed=0),
        pipeline=SingleStepPipeline(NullSource().next_batch),
        reward_fn=relu_reward(
            [PerformanceObjective("train_step_time", base_time, beta=-3.0)]
        ),
        performance_fn=performance_fn,
        config=SearchConfig(
            steps=STEPS,
            num_cores=CORES,
            warmup_steps=0,
            policy_lr=1e-6,  # hold the converged policy in place
            record_candidates=False,
            seed=0,
            use_cache=use_cache,
        ),
    )
    # Emulate a converged policy: concentrate every decision.
    for logit in search.controller.policy.logits:
        logit[0] = CONVERGED_LOGIT
    return search


def price_throughput(stats):
    priced = stats.cache_hits + stats.cache_misses if stats.cache_enabled else stats.evaluations
    return priced / max(stats.stage_seconds["price"], 1e-12)


def chain_price_ms(num_ops):
    """Median of 5: build a chain of ``num_ops`` dense ops and simulate it."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        graph = OpGraph("chain")
        graph.chain(ops.dense(f"fc{i}", 64, 256, 256) for i in range(num_ops))
        simulate(graph, TPU_V4)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def ms_per_simulator_call(stats):
    return stats.stage_seconds["price"] * 1e3 / max(stats.evaluations, 1)


def run():
    cached = build_search(use_cache=True).run().eval_stats
    uncached = build_search(use_cache=False).run().eval_stats
    speedup = price_throughput(cached) / price_throughput(uncached)
    rows = [
        [
            "cache on",
            f"{price_throughput(cached):.0f}",
            f"{cached.stage_seconds['price'] * 1e3:.1f}",
            cached.evaluations,
            f"{ms_per_simulator_call(cached):.2f}",
            f"{cached.hit_rate:.1%}",
        ],
        [
            "cache off",
            f"{price_throughput(uncached):.0f}",
            f"{uncached.stage_seconds['price'] * 1e3:.1f}",
            uncached.evaluations,
            f"{ms_per_simulator_call(uncached):.2f}",
            "-",
        ],
    ]
    table = format_table(
        [
            "runtime",
            "candidates/s (price)",
            "price ms",
            "simulator calls",
            "ms per simulator call",
            "hit rate",
        ],
        rows,
    )
    table += f"\n\nprice-stage throughput speedup: {speedup:.1f}x"
    small, large = chain_price_ms(CHAIN_OPS), chain_price_ms(4 * CHAIN_OPS)
    table += (
        f"\n\nbuild + simulate a chain of {CHAIN_OPS} ops: {small:.2f} ms, "
        f"of {4 * CHAIN_OPS} ops: {large:.2f} ms ({large / small:.1f}x for 4x the ops)"
    )
    table += "\n\nper-stage wall time, cache on (ms):\n" + format_table(
        ["stage", "ms", "calls"],
        [
            [stage, f"{cached.stage_seconds[stage] * 1e3:.1f}", cached.stage_calls[stage]]
            for stage in cached.stage_seconds
        ],
    )
    emit("eval_runtime", table)
    emit_json(
        "eval_runtime",
        {
            "steps": STEPS,
            "cores": CORES,
            "cached_throughput": price_throughput(cached),
            "uncached_throughput": price_throughput(uncached),
            "speedup": speedup,
            "hit_rate": cached.hit_rate,
            "ms_per_simulator_call_uncached": ms_per_simulator_call(uncached),
            "chain_ms": {str(CHAIN_OPS): small, str(4 * CHAIN_OPS): large},
            "simulator_calls_cached": cached.evaluations,
            "simulator_calls_uncached": uncached.evaluations,
            "stage_seconds_cached": dict(cached.stage_seconds),
        },
    )
    return cached, uncached, speedup


def _unique_shard(space, count, seed=0):
    """``count`` distinct (arch, indices) pairs — a fully cold shard."""
    rng = np.random.default_rng(seed)
    drawn, seen = [], set()
    while len(drawn) < count:
        arch = space.sample(rng)
        indices = space.indices_of(arch)
        key = arch_key(indices)
        if key in seen:
            continue
        seen.add(key)
        drawn.append((arch, indices))
    return drawn


def run_pricing(shard_candidates=SHARD_CANDIDATES):
    """Batched vs. per-candidate MLP pricing, cold cache."""
    space = dlrm_search_space(
        DlrmSpaceConfig(num_tables=NUM_TABLES, num_dense_stacks=2)
    )
    # MLP heads only: the analytical size head is per-architecture Python
    # either way, so it would dilute the batched-vs-sequential contrast
    # this measurement is after.
    model = PerformanceModel(
        ArchitectureEncoder(space), hidden_sizes=(512, 512), seed=0
    )
    drawn = _unique_shard(space, shard_candidates)

    batched = EvalRuntime(model, space=space)
    with batched.timed("price"):
        batched_metrics = batched.price_many(drawn)
    sequential = EvalRuntime(model, space=space)
    with sequential.timed("price"):
        sequential_metrics = [sequential.price(arch, idx) for arch, idx in drawn]

    for got, want in zip(batched_metrics, sequential_metrics):
        assert got.keys() == want.keys()
        assert all(np.isclose(got[k], want[k]) for k in want)
    batched_stats, sequential_stats = batched.stats(), sequential.stats()
    return {
        "shard_candidates": shard_candidates,
        "batched_throughput": batched_stats.price_throughput,
        "sequential_throughput": sequential_stats.price_throughput,
        "speedup": batched_stats.price_throughput
        / max(sequential_stats.price_throughput, 1e-12),
        "batched_price_seconds": batched_stats.stage_seconds["price"],
        "sequential_price_seconds": sequential_stats.stage_seconds["price"],
    }


def test_eval_runtime_cache(benchmark):
    cached, uncached, speedup = benchmark.pedantic(run, rounds=1, iterations=1)
    # Both runs priced the same candidate stream.
    assert cached.cache_hits + cached.cache_misses == STEPS * CORES
    assert uncached.evaluations == STEPS * CORES
    # A converged policy repeats candidates, so most pricings hit.
    assert cached.hit_rate > 0.5
    assert cached.evaluations < uncached.evaluations
    # Acceptance criterion: >= 2x candidate-pricing throughput.
    assert speedup >= 2.0, f"cache speedup only {speedup:.2f}x"


def test_pricing_cost_is_linear_in_graph_size():
    chain_price_ms(CHAIN_OPS)  # warm imports and allocator
    small, large = chain_price_ms(CHAIN_OPS), chain_price_ms(4 * CHAIN_OPS)
    assert large <= CHAIN_MAX_RATIO * small, (
        f"{4 * CHAIN_OPS} ops cost {large:.2f} ms, {large / small:.1f}x "
        f"the {small:.2f} ms of {CHAIN_OPS}"
    )


def test_batched_pricing(benchmark):
    pricing = benchmark.pedantic(run_pricing, rounds=1, iterations=1)
    # Acceptance: >= 3x price-stage throughput on a cold-cache shard.
    assert pricing["speedup"] >= 3.0, f"pricing speedup only {pricing['speedup']:.2f}x"
