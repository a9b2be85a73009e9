"""Cross-module property-based tests: invariants the whole stack obeys."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PerformanceObjective, absolute_reward, relu_reward
from repro.graph import OpGraph, ops, passes
from repro.hardware import (
    GPU_V100,
    TPU_V4,
    TPU_V4I,
    power_report,
    simulate,
)
from repro.models import CnnBaseline, VitBaseline
from repro.models.cnn_timing import build_cnn_graph
from repro.models.vit_timing import build_vit_graph
from repro.searchspace import (
    CnnSpaceConfig,
    DlrmSpaceConfig,
    VitSpaceConfig,
    cnn_search_space,
    dlrm_search_space,
    vit_search_space,
)

PLATFORM_LIST = (TPU_V4, TPU_V4I, GPU_V100)


def random_dense_graph(rng: np.random.Generator) -> OpGraph:
    graph = OpGraph("random")
    last = None
    for i in range(int(rng.integers(1, 6))):
        last = ops.dense(
            graph,
            f"fc{i}",
            batch=int(rng.integers(1, 64)),
            nin=int(rng.integers(8, 512)),
            nout=int(rng.integers(8, 512)),
            deps=[last] if last else [],
        )
    return graph


class TestSimulatorInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_critical_path_never_exceeds_serial_time(self, seed):
        graph = random_dense_graph(np.random.default_rng(seed))
        for hw in PLATFORM_LIST:
            result = simulate(graph, hw)
            assert result.total_time_s <= result.serial_time_s + 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_adding_an_op_never_speeds_a_chain_up(self, seed):
        graph = random_dense_graph(np.random.default_rng(seed))
        before = simulate(graph, TPU_V4).total_time_s
        tail = graph.nodes()[-1].name
        ops.dense(graph, "extra", 8, 64, 64, deps=[tail])
        after = simulate(graph, TPU_V4).total_time_s
        assert after >= before

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_power_always_within_chip_envelope(self, seed):
        graph = random_dense_graph(np.random.default_rng(seed))
        for hw in PLATFORM_LIST:
            report = power_report(simulate(graph, hw), hw)
            assert hw.idle_power_w <= report.power_w <= hw.max_power_w

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_achieved_flops_never_exceed_peak(self, seed):
        graph = random_dense_graph(np.random.default_rng(seed))
        for hw in PLATFORM_LIST:
            result = simulate(graph, hw)
            assert result.achieved_flops <= hw.peak_matrix_flops * (1 + 1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_fusion_preserves_flops_and_never_hurts(self, seed):
        graph = random_dense_graph(np.random.default_rng(seed))
        tail = graph.nodes()[-1].name
        ops.elementwise(graph, "act", 4096, op_type="activation", deps=[tail])
        optimized = passes.optimize(graph)
        assert optimized.total_flops == pytest.approx(graph.total_flops)
        assert (
            simulate(optimized, TPU_V4).total_time_s
            <= simulate(graph, TPU_V4).total_time_s + 1e-12
        )


class TestLoweringInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_every_cnn_arch_lowers_to_finite_positive_times(self, seed):
        space = cnn_search_space(CnnSpaceConfig(num_blocks=3))
        arch = space.sample(np.random.default_rng(seed))
        graph = build_cnn_graph(CnnBaseline(
            stage_widths=(24, 48, 96), stage_depths=(1, 2, 2)
        ), arch, batch=2)
        for hw in PLATFORM_LIST:
            time = simulate(graph, hw).total_time_s
            assert np.isfinite(time) and time > 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_every_vit_arch_lowers_to_finite_positive_times(self, seed):
        space = vit_search_space(VitSpaceConfig(num_tfm_blocks=2))
        arch = space.sample(np.random.default_rng(seed))
        graph = build_vit_graph(VitBaseline(), arch, batch=2)
        for hw in PLATFORM_LIST:
            time = simulate(graph, hw).total_time_s
            assert np.isfinite(time) and time > 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_faster_hardware_is_never_slower(self, seed):
        """TPUv4 dominates TPUv4i on every axis: so does its timing."""
        space = cnn_search_space(CnnSpaceConfig(num_blocks=2))
        arch = space.sample(np.random.default_rng(seed))
        graph = build_cnn_graph(
            CnnBaseline(stage_widths=(24, 48), stage_depths=(1, 2)), arch, batch=4
        )
        assert (
            simulate(graph, TPU_V4).total_time_s
            <= simulate(graph, TPU_V4I).total_time_s + 1e-12
        )


class TestRewardInvariants:
    @given(
        st.floats(0.0, 1.0),
        st.floats(0.01, 10.0),
        st.floats(0.01, 10.0),
        st.floats(-5.0, -0.01),
    )
    @settings(max_examples=60, deadline=None)
    def test_relu_reward_at_least_absolute(self, quality, value, target, beta):
        objective = PerformanceObjective("metric", target, beta)
        metrics = {"metric": value}
        assert (
            relu_reward([objective])(quality, metrics)
            >= absolute_reward([objective])(quality, metrics) - 1e-12
        )

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.01, 10.0),
        st.floats(0.01, 10.0),
        st.floats(-5.0, -0.01),
    )
    @settings(max_examples=60, deadline=None)
    def test_reward_never_exceeds_quality(self, quality, value, target, beta):
        """Penalties are non-positive: reward <= raw quality."""
        objective = PerformanceObjective("metric", target, beta)
        metrics = {"metric": value}
        for factory in (relu_reward, absolute_reward):
            assert factory([objective])(quality, metrics) <= quality + 1e-12

    @given(st.floats(0.0, 1.0), st.floats(0.01, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_relu_reward_monotone_in_metric(self, quality, target):
        """Slower candidates never score higher under the ReLU reward."""
        reward = relu_reward([PerformanceObjective("metric", target, -1.0)])
        values = sorted([target * f for f in (0.5, 0.9, 1.0, 1.3, 2.0)])
        scores = [reward(quality, {"metric": v}) for v in values]
        assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))


class TestSpaceInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_indices_roundtrip_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        for space in (
            cnn_search_space(CnnSpaceConfig(num_blocks=2)),
            dlrm_search_space(DlrmSpaceConfig(num_tables=2, num_dense_stacks=2)),
            vit_search_space(VitSpaceConfig(num_tfm_blocks=1)),
        ):
            arch = space.sample(rng)
            assert space.architecture_from_indices(space.indices_of(arch)) == arch

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_default_architecture_always_valid(self, seed):
        for space in (
            cnn_search_space(CnnSpaceConfig(num_blocks=(seed % 3) + 1)),
            dlrm_search_space(
                DlrmSpaceConfig(num_tables=(seed % 4) + 1, num_dense_stacks=2)
            ),
        ):
            space.validate(space.default_architecture())
