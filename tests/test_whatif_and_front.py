"""Tests for hardware what-if analysis."""

import pytest

from repro.graph import OpGraph, ops
from repro.hardware import (
    TPU_V4,
    bottleneck,
    resource_sensitivity,
    sensitivity_profile,
)


def compute_bound_graph():
    graph = OpGraph("compute")
    last = []
    for i in range(3):
        last = [ops.dense(graph, f"fc{i}", 4096, 4096, 4096, deps=last)]
    return graph


def memory_bound_graph():
    graph = OpGraph("memory")
    ops.embedding_lookup(graph, "emb", lookups=int(4e6), width=64, distributed=False)
    return graph


def network_bound_graph():
    graph = OpGraph("network")
    ops.all_to_all(graph, "a2a", payload_bytes=2e9)
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
