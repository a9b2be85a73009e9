"""Failure-injection tests: the system fails loudly, not silently."""

import numpy as np
import pytest

from repro.core import (
    PerformanceObjective,
    ReinforceController,
    SearchConfig,
    SingleStepSearch,
    SurrogateSuperNetwork,
    relu_reward,
)
from repro.data import (
    CtrTaskConfig,
    CtrTeacher,
    NullSource,
    PipelineExhausted,
    PipelineProtocolError,
    SingleStepPipeline,
)
from repro.graph import OpGraph, OpNode, ops
from repro.hardware import TPU_V4, simulate
from repro.searchspace import Decision, DlrmSpaceConfig, SearchSpace, dlrm_search_space
from repro.supernet import DlrmSuperNetwork, DlrmSupernetConfig


def tiny_space():
    return SearchSpace("tiny", [Decision("a", (0, 1))])


class TestControllerGuards:
    def test_nan_reward_rejected(self):
        controller = ReinforceController(tiny_space())
        _, idx = controller.sample()
        with pytest.raises(ValueError, match="non-finite"):
            controller.update([(idx, float("nan"))])

    def test_inf_reward_rejected(self):
        controller = ReinforceController(tiny_space())
        _, idx = controller.sample()
        with pytest.raises(ValueError, match="non-finite"):
            controller.update([(idx, float("inf"))])

    def test_search_surfaces_nan_quality(self):
        """A broken quality signal aborts the search instead of silently
        corrupting the policy."""
        search = SingleStepSearch(
            space=tiny_space(),
            supernet=SurrogateSuperNetwork(lambda arch: float("nan")),
            pipeline=SingleStepPipeline(NullSource().next_batch),
            reward_fn=relu_reward([]),
            performance_fn=lambda arch: {},
            config=SearchConfig(steps=3, num_cores=2, warmup_steps=0),
        )
        with pytest.raises(ValueError, match="non-finite"):
            search.run()


class TestRewardGuards:
    def test_missing_metric_raises(self):
        reward = relu_reward([PerformanceObjective("latency", 1.0, -1.0)])
        with pytest.raises(KeyError, match="latency"):
            reward(0.5, {"throughput": 2.0})


class TestPipelineMisuse:
    def test_double_training_on_one_batch_detected(self):
        """A buggy training loop that reuses a batch is caught."""
        teacher = CtrTeacher(CtrTaskConfig(num_tables=2, batch_size=8))
        pipeline = SingleStepPipeline(teacher.next_batch)
        batch = pipeline.next_batch()
        pipeline.mark_policy_use(batch)
        pipeline.mark_weight_use(batch)
        with pytest.raises(PipelineProtocolError):
            pipeline.mark_weight_use(batch)

    def test_search_on_exhausted_pipeline_raises(self):
        teacher = CtrTeacher(CtrTaskConfig(num_tables=2, batch_size=8))
        space = dlrm_search_space(DlrmSpaceConfig(num_tables=2, num_dense_stacks=2))
        search = SingleStepSearch(
            space=space,
            supernet=DlrmSuperNetwork(DlrmSupernetConfig(num_tables=2)),
            pipeline=SingleStepPipeline(teacher.next_batch, max_batches=4),
            reward_fn=relu_reward([]),
            performance_fn=lambda arch: {},
            config=SearchConfig(steps=10, num_cores=2, warmup_steps=0),
        )
        with pytest.raises(PipelineExhausted):
            search.run()


class TestGraphGuards:
    @staticmethod
    def two_op_graph():
        graph = OpGraph("guarded")
        graph.add(OpNode("a", "dense", flops=1.0))
        graph.add(OpNode("b", "dense", flops=1.0), deps=["a"])
        return graph

    def test_duplicate_name_is_value_error(self):
        with pytest.raises(ValueError, match="duplicate"):
            self.two_op_graph().add(OpNode("a", "dense"), deps=["b"])

    def test_unknown_dependency_is_key_error(self):
        with pytest.raises(KeyError, match="missing"):
            self.two_op_graph().add(OpNode("c", "dense"), deps=["a", "missing"])

    def test_self_dependency_refused(self):
        """The only edge that could close a cycle.  A node is not in the
        graph while it is being added, so it is an unknown dependency."""
        with pytest.raises(KeyError, match="'c'"):
            self.two_op_graph().add(OpNode("c", "dense"), deps=["a", "c"])

    @pytest.mark.parametrize(
        "name, deps", [("a", ["b"]), ("c", ["a", "missing"]), ("c", ["a", "c"])]
    )
    def test_refused_add_leaves_graph_unchanged(self, name, deps):
        graph = self.two_op_graph()

        def state():
            names = [op.name for op in graph.nodes()]
            return (
                len(graph),
                names,
                {n: list(graph.predecessors(n)) for n in names},
                {n: list(graph.successors(n)) for n in names},
            )

        before = state()
        with pytest.raises((ValueError, KeyError)):
            graph.add(OpNode(name, "dense"), deps=deps)
        assert state() == before
        assert "c" not in graph

    def test_simulating_empty_graph_is_zero_time(self):
        result = simulate(OpGraph("empty"), TPU_V4)
        assert result.total_time_s == 0.0
        assert result.total_flops == 0.0

    def test_infinite_compute_guard(self):
        """A positive-FLOPs op whose dims kill the compute rate still
        yields a finite (memory/overhead-bounded) or inf time, never NaN."""
        graph = OpGraph("odd")
        graph.add(
            OpNode("weird", "dense", flops=1e9, bytes_in=8.0, unit="mxu", dims=(1, 1, 1))
        )
        result = simulate(graph, TPU_V4)
        assert not np.isnan(result.total_time_s)


class TestSupernetGuards:
    def test_architecture_missing_decisions_fails(self):
        """An arch from a smaller space lacks the supernet's decisions."""
        net = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=4))
        small_space = dlrm_search_space(DlrmSpaceConfig(num_tables=1, num_dense_stacks=2))
        arch = small_space.sample(np.random.default_rng(0))
        teacher = CtrTeacher(CtrTaskConfig(num_tables=4, batch_size=4))
        batch = teacher.next_batch()
        with pytest.raises(KeyError):
            net(arch, batch.inputs)
