"""Tests for serving-throughput optimization under a P99 latency target."""

import numpy as np
import pytest

from repro.graph import OpGraph, ops
from repro.hardware import (
    HardwareTestbed,
    TPU_V4I,
    measure_serving_point,
    optimize_serving_throughput,
)


def build_graph(batch: int) -> OpGraph:
    """A compute-dominated serving graph: latency scales with batch."""
    graph = OpGraph(f"serve_b{batch}")
    last = []
    for i in range(4):
        last = [ops.matmul(graph, f"mm{i}", m=batch * 256, k=1024, n=1024, deps=last)]
    return graph


def make_testbed(seed=0):
    return HardwareTestbed(TPU_V4I, seed=seed)


class TestServingPoint:
    def test_p99_above_p50(self):
        point = measure_serving_point(make_testbed(), build_graph, batch_size=8)
        assert point.p99_latency_s > point.p50_latency_s > 0

    def test_throughput_definition(self):
        point = measure_serving_point(make_testbed(), build_graph, batch_size=8)
        assert point.throughput == pytest.approx(8 / point.p50_latency_s)

    def test_latency_grows_with_batch(self):
        small = measure_serving_point(make_testbed(1), build_graph, 4)
        large = measure_serving_point(make_testbed(1), build_graph, 64)
        assert large.p99_latency_s > small.p99_latency_s

    def test_throughput_grows_with_batch(self):
        """Batching amortizes fixed costs: bigger batch, more QPS."""
        small = measure_serving_point(make_testbed(2), build_graph, 1)
        large = measure_serving_point(make_testbed(2), build_graph, 64)
        assert large.throughput > small.throughput

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_serving_point(make_testbed(), build_graph, batch_size=0)
        with pytest.raises(ValueError):
            measure_serving_point(make_testbed(), build_graph, 1, num_measurements=1)


class TestOptimizeServingThroughput:
    def test_loose_target_picks_large_batch(self):
        report = optimize_serving_throughput(
            make_testbed(3), build_graph, target_latency_s=1.0,
            batch_candidates=(1, 8, 64), num_measurements=20,
        )
        assert report.feasible
        assert report.best.batch_size == 64

    def test_tight_target_limits_batch(self):
        loose = optimize_serving_throughput(
            make_testbed(4), build_graph, 1.0, batch_candidates=(1, 8, 64),
            num_measurements=20,
        )
        # A target just above the single-example latency forces batch 1.
        single = measure_serving_point(make_testbed(4), build_graph, 1, 20)
        tight = optimize_serving_throughput(
            make_testbed(4), build_graph, single.p99_latency_s * 1.05,
            batch_candidates=(1, 8, 64), num_measurements=20,
        )
        assert tight.feasible
        assert tight.best.batch_size < loose.best.batch_size
        assert tight.throughput_under_target < loose.throughput_under_target

    def test_infeasible_target(self):
        report = optimize_serving_throughput(
            make_testbed(5), build_graph, target_latency_s=1e-9,
            batch_candidates=(1, 2), num_measurements=10,
        )
        assert not report.feasible
        assert report.throughput_under_target == 0.0

    def test_sweep_stops_at_first_infeasible(self):
        single = measure_serving_point(make_testbed(6), build_graph, 1, 20)
        report = optimize_serving_throughput(
            make_testbed(6), build_graph, single.p99_latency_s * 1.05,
            batch_candidates=(1, 8, 64, 256), num_measurements=10,
        )
        # 8 breaks the target, so 64/256 are never probed.
        assert len(report.points) <= 3

    def test_target_validation(self):
        with pytest.raises(ValueError):
            optimize_serving_throughput(make_testbed(), build_graph, target_latency_s=0.0)
