"""Tests for compiler-style graph passes and the cluster model."""

import numpy as np
import pytest

from repro.graph import OpGraph, OpNode, ops, passes
from repro.hardware import (
    ClusterModel,
    TPU_V4,
    allreduce_time,
    simulate,
)
from repro.models.coatnet import COATNET, build_graph as build_coatnet


def conv_act_chain():
    graph = OpGraph("chain")
    ops.conv2d(graph, "conv", 28, 28, 32, 32, 3, batch=8)
    ops.elementwise(graph, "act", 8 * 28 * 28 * 32, op_type="activation", deps=["conv"])
    ops.conv2d(graph, "conv2", 28, 28, 32, 32, 3, batch=8, deps=["act"])
    return graph


class TestFuseElementwise:
    def test_fuses_single_consumer_activation(self):
        fused = passes.fuse_elementwise(conv_act_chain())
        assert len(fused) == 2
        assert "act" not in fused
        assert fused.node("conv").attrs["fused_ops"] == 1

    def test_flops_conserved(self):
        graph = conv_act_chain()
        fused = passes.fuse_elementwise(graph)
        assert fused.total_flops == pytest.approx(graph.total_flops)

    def test_intermediate_traffic_removed(self):
        graph = conv_act_chain()
        fused = passes.fuse_elementwise(graph)
        # The activation's input read and the producer's output write
        # cancel: total bytes strictly drop.
        assert fused.total_bytes < graph.total_bytes

    def test_edges_spliced(self):
        fused = passes.fuse_elementwise(conv_act_chain())
        assert fused.predecessors("conv2") == ["conv"]

    def test_multi_consumer_not_fused(self):
        graph = OpGraph("fanout")
        ops.conv2d(graph, "conv", 28, 28, 32, 32, 3)
        ops.elementwise(graph, "act", 28 * 28 * 32, op_type="activation", deps=["conv"])
        ops.pooling(graph, "p", 28, 28, 32, 2, deps=["conv"])  # second consumer
        fused = passes.fuse_elementwise(graph)
        assert "act" in fused  # producer output reused: must materialize

    def test_multi_producer_not_fused(self):
        graph = OpGraph("join")
        ops.conv2d(graph, "a", 28, 28, 32, 32, 3)
        ops.conv2d(graph, "b", 28, 28, 32, 32, 3)
        ops.elementwise(graph, "add", 28 * 28 * 32, op_type="add", deps=["a", "b"])
        fused = passes.fuse_elementwise(graph)
        assert "add" in fused

    def test_embedding_lookup_not_a_fusion_producer(self):
        graph = OpGraph("emb")
        ops.embedding_lookup(graph, "lookup", 1024, 32)
        ops.elementwise(graph, "pool", 1024 * 32, op_type="pooling_sum", deps=["lookup"])
        fused = passes.fuse_elementwise(graph)
        assert "pool" in fused

    def test_matmul_not_fused_into_anything(self):
        graph = OpGraph("mm")
        ops.dense(graph, "fc1", 8, 64, 64)
        ops.dense(graph, "fc2", 8, 64, 64, deps=["fc1"])
        fused = passes.fuse_elementwise(graph)
        assert len(fused) == 2


class TestEliminateDeadOps:
    def test_zero_cost_op_removed(self):
        graph = OpGraph("dead")
        ops.dense(graph, "fc", 8, 64, 64)
        graph.add(OpNode("noop", "reshape"), deps=["fc"])
        ops.dense(graph, "fc2", 8, 64, 64, deps=["noop"])
        cleaned = passes.eliminate_dead_ops(graph)
        assert "noop" not in cleaned
        assert cleaned.predecessors("fc2") == ["fc"]

    def test_never_empties_graph(self):
        graph = OpGraph("only")
        graph.add(OpNode("a", "reshape"))
        graph.add(OpNode("b", "reshape"), deps=["a"])
        cleaned = passes.eliminate_dead_ops(graph)
        assert len(cleaned) >= 1


class TestOptimize:
    def test_real_model_gets_smaller_and_faster(self):
        graph = build_coatnet(COATNET["0"], batch=8)
        optimized = passes.optimize(graph)
        assert len(optimized) < len(graph)
        assert optimized.total_flops == pytest.approx(graph.total_flops)
        before = simulate(graph, TPU_V4).total_time_s
        after = simulate(optimized, TPU_V4).total_time_s
        assert after <= before

    def test_input_graph_untouched(self):
        graph = conv_act_chain()
        ops_before = len(graph)
        passes.optimize(graph)
        assert len(graph) == ops_before
        assert "act" in graph

    def test_fixed_point(self):
        once = passes.optimize(conv_act_chain())
        twice = passes.optimize(once)
        assert len(once) == len(twice)

    def test_validation(self):
        with pytest.raises(ValueError):
            passes.optimize(conv_act_chain(), max_iterations=0)


class TestClusterModel:
    def make(self):
        return ClusterModel(TPU_V4, lambda b: build_coatnet(COATNET["0"], batch=b))

    def test_allreduce_time(self):
        assert allreduce_time(1e9, 1, TPU_V4) == 0.0
        t2 = allreduce_time(1e9, 2, TPU_V4)
        t128 = allreduce_time(1e9, 128, TPU_V4)
        assert 0 < t2 < t128 < 2e9 / TPU_V4.ici_bandwidth * 1.01

    def test_allreduce_validation(self):
        with pytest.raises(ValueError):
            allreduce_time(1e9, 0, TPU_V4)

    def test_step_time_is_max_of_phases(self):
        step = self.make().step(8, global_batch=256)
        assert step.step_time_s == max(step.compute_time_s, step.allreduce_time_s)

    def test_throughput_scales_with_chips(self):
        model = self.make()
        small = model.step(1, 1024)
        large = model.step(32, 1024)
        assert large.examples_per_second > small.examples_per_second * 8

    def test_communication_bound_at_tiny_batches(self):
        """One example per chip on a weight-heavy model: the gradient
        all-reduce (2x param bytes over ICI) outlasts the compute."""

        def weight_heavy(batch):
            graph = OpGraph("wide")
            ops.dense(graph, "fc", batch, 32768, 32768)
            return graph

        step = ClusterModel(TPU_V4, weight_heavy).step(128, global_batch=128)
        assert step.communication_bound

    def test_efficiency_near_one_at_healthy_batch(self):
        eff = self.make().scaling_efficiency((1, 8, 32), global_batch=2048)
        assert all(0.8 < e < 1.3 for e in eff)

    def test_validation(self):
        model = self.make()
        with pytest.raises(ValueError):
            model.step(0, 128)
        with pytest.raises(ValueError):
            model.step(128, 64)
        with pytest.raises(ValueError):
            model.scaling_efficiency((), 128)
