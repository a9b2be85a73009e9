"""Tests for hardware what-if analysis and Pareto-front tracing."""

import numpy as np
import pytest

from repro.core import (
    FrontSearchConfig,
    PerformanceObjective,
    SearchConfig,
    trace_front,
)
from repro.graph import OpGraph, ops
from repro.hardware import (
    TPU_V4,
    bottleneck,
    resource_sensitivity,
    sensitivity_profile,
)
from repro.models import baseline_production_dlrm
from repro.models.dlrm import apply_architecture
from repro.models.timing import DlrmTimingHarness
from repro.quality import DlrmQualityModel
from repro.searchspace import DlrmSpaceConfig, dlrm_search_space


def compute_bound_graph():
    graph = OpGraph("compute")
    graph.chain([ops.dense(f"fc{i}", 4096, 4096, 4096) for i in range(3)])
    return graph


def memory_bound_graph():
    graph = OpGraph("memory")
    graph.add(ops.embedding_lookup("emb", lookups=int(4e6), width=64, distributed=False))
    return graph


def network_bound_graph():
    graph = OpGraph("network")
    graph.add(ops.all_to_all("a2a", payload_bytes=2e9))
    return graph


class TestResourceSensitivity:
    def test_compute_bound_rides_matrix_unit(self):
        assert bottleneck(compute_bound_graph(), TPU_V4) == "matrix_unit"

    def test_memory_bound_rides_hbm(self):
        assert bottleneck(memory_bound_graph(), TPU_V4) == "hbm_bandwidth"

    def test_network_bound_rides_interconnect(self):
        assert bottleneck(network_bound_graph(), TPU_V4) == "interconnect"

    def test_elasticity_near_one_for_bottleneck(self):
        sens = resource_sensitivity(compute_bound_graph(), TPU_V4, "matrix_unit")
        assert 0.7 < sens.elasticity <= 1.01

    def test_elasticity_near_zero_for_slack_resource(self):
        sens = resource_sensitivity(compute_bound_graph(), TPU_V4, "interconnect")
        assert sens.elasticity < 0.05

    def test_profile_covers_all_resources(self):
        profile = sensitivity_profile(compute_bound_graph(), TPU_V4)
        assert set(profile) == {
            "matrix_unit",
            "vector_unit",
            "hbm_bandwidth",
            "cmem_bandwidth",
            "interconnect",
        }

    def test_profile_takes_the_unscaled_baseline_once(self, monkeypatch):
        """One unscaled simulation plus one per resource, and each entry
        is what ``resource_sensitivity`` returns on its own."""
        from repro.hardware import PerformanceSimulator

        simulated = []
        simulate = PerformanceSimulator.simulate
        monkeypatch.setattr(
            PerformanceSimulator,
            "simulate",
            lambda self, graph: simulated.append(self.hw) or simulate(self, graph),
        )
        graph = memory_bound_graph()
        profile = sensitivity_profile(graph, TPU_V4)
        assert len(simulated) == 6 and simulated.count(TPU_V4) == 1
        for resource, sens in profile.items():
            assert sens == resource_sensitivity(graph, TPU_V4, resource)

    def test_speedup_never_negative(self):
        for graph in (compute_bound_graph(), memory_bound_graph()):
            for sens in sensitivity_profile(graph, TPU_V4).values():
                assert sens.speedup >= 1.0 - 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            resource_sensitivity(compute_bound_graph(), TPU_V4, "quantum_unit")
        with pytest.raises(ValueError):
            resource_sensitivity(compute_bound_graph(), TPU_V4, "matrix_unit", scale=0)


class TestTraceFront:
    def make_problem(self):
        space = dlrm_search_space(DlrmSpaceConfig(num_tables=2, num_dense_stacks=2))
        baseline = baseline_production_dlrm(num_tables=2)
        harness = DlrmTimingHarness(baseline, seed=0)
        quality_model = DlrmQualityModel(baseline)
        cache = {}

        def perf_fn(arch):
            if arch not in cache:
                cache[arch] = {"train_step_time": harness.simulate(arch)[0]}
            return cache[arch]

        def quality_fn(arch):
            return quality_model.quality(apply_architecture(baseline, arch))

        return space, quality_fn, perf_fn

    def test_sweep_produces_one_point_per_target(self):
        space, quality_fn, perf_fn = self.make_problem()
        config = FrontSearchConfig(
            target_scales=(0.8, 1.2),
            search=SearchConfig(
                steps=40, num_cores=4, warmup_steps=5, policy_lr=0.15,
                policy_entropy_coef=0.1, record_candidates=False, seed=0,
            ),
        )
        result = trace_front(space, quality_fn, perf_fn, config)
        assert len(result.points) == 2
        assert {p.target_scale for p in result.points} == {0.8, 1.2}
        for point in result.points:
            space.validate(point.architecture)
            assert point.metrics["train_step_time"] > 0

    def test_front_is_nondominated(self):
        space, quality_fn, perf_fn = self.make_problem()
        config = FrontSearchConfig(
            target_scales=(0.75, 1.0, 1.5),
            search=SearchConfig(
                steps=60, num_cores=4, warmup_steps=5, policy_lr=0.15,
                policy_entropy_coef=0.1, record_candidates=False, seed=1,
            ),
        )
        result = trace_front(space, quality_fn, perf_fn, config)
        front = result.front()
        assert 1 <= len(front) <= len(result.points)
        for a in front:
            for b in front:
                if a is b:
                    continue
                dominates = (
                    b.quality >= a.quality
                    and b.metrics["train_step_time"] <= a.metrics["train_step_time"]
                    and (
                        b.quality > a.quality
                        or b.metrics["train_step_time"] < a.metrics["train_step_time"]
                    )
                )
                assert not dominates

    def test_helpers(self):
        space, quality_fn, perf_fn = self.make_problem()
        config = FrontSearchConfig(
            target_scales=(0.8, 1.5),
            search=SearchConfig(
                steps=40, num_cores=4, warmup_steps=5, record_candidates=False, seed=2
            ),
        )
        result = trace_front(space, quality_fn, perf_fn, config)
        assert result.best_quality().quality >= result.fastest().quality - 1e-9
        assert (
            result.fastest().metrics["train_step_time"]
            <= result.best_quality().metrics["train_step_time"] + 1e-12
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FrontSearchConfig(target_scales=())
        with pytest.raises(ValueError):
            FrontSearchConfig(target_scales=(0.0,))
        with pytest.raises(ValueError):
            FrontSearchConfig(quality_weight=0.0)
