"""Tiny end-to-end smoke run of the batched-pricing benchmark path.

Runs ``benchmarks/bench_eval_runtime.py``'s ``run_pricing`` at a
configuration small enough for the tier-1 budget, asserting structure
(not speedups — those belong to the full benchmark run, which needs
realistic sizes to be meaningful).  Nothing is written under
``benchmarks/results/``.
"""

import pytest

from benchmarks.bench_eval_runtime import run_pricing

pytestmark = pytest.mark.slow


def test_pricing_smoke():
    pricing = run_pricing(shard_candidates=32)
    assert pricing["shard_candidates"] == 32
    assert pricing["batched_throughput"] > 0
    assert pricing["sequential_throughput"] > 0
    assert pricing["speedup"] > 0
