"""Tests for hardware configs, roofline, simulator, power, and testbed."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import OpGraph, OpNode, ops
from repro.hardware import (
    GPU_V100,
    HardwareConfig,
    HardwareTestbed,
    PerformanceSimulator,
    TPU_V4,
    TPU_V4I,
    TestbedCalibration,
    mxu_efficiency,
    peak_compute_rate,
    platform,
    power_report,
    roofline_point,
    simulate,
    tile_efficiency,
)


class TestHardwareConfig:
    def test_builtin_platforms(self):
        assert platform("tpu_v4") is TPU_V4
        assert platform("tpu_v4i") is TPU_V4I
        assert platform("gpu_v100") is GPU_V100

    def test_unknown_platform(self):
        with pytest.raises(ValueError):
            platform("tpu_v9")

    def test_derived_units(self):
        assert TPU_V4.peak_matrix_flops == 275e12
        assert TPU_V4.hbm_bandwidth == 1228e9
        assert TPU_V4.cmem_capacity_bytes == 128e6

    def test_validation(self):
        with pytest.raises(ValueError):
            TPU_V4.with_overrides(hbm_bandwidth_gbs=0.0)
        with pytest.raises(ValueError):
            TPU_V4.with_overrides(max_power_w=10.0)

    def test_with_overrides(self):
        faster = TPU_V4.with_overrides(hbm_bandwidth_gbs=2456.0)
        assert faster.hbm_bandwidth == 2456e9
        assert TPU_V4.hbm_bandwidth == 1228e9  # original untouched


class TestRoofline:
    def test_tile_efficiency_exact_multiple(self):
        assert tile_efficiency(128, 128) == 1.0
        assert tile_efficiency(256, 128) == 1.0

    def test_tile_efficiency_padding_waste(self):
        assert tile_efficiency(100, 128) == pytest.approx(100 / 128)
        assert tile_efficiency(129, 128) == pytest.approx(129 / 256)

    def test_tile_efficiency_invalid(self):
        with pytest.raises(ValueError):
            tile_efficiency(0, 128)

    def test_mxu_efficiency_aligned_dims(self):
        assert mxu_efficiency((8, 128, 128), TPU_V4) == 1.0

    def test_mxu_efficiency_small_dims_penalized(self):
        assert mxu_efficiency((8, 1, 1), TPU_V4) < 0.001

    def test_peak_rate_vpu_for_depthwise(self):
        graph = OpGraph()
        dw = graph.node(ops.depthwise_conv2d(graph, "d", 32, 32, 128, 3))
        assert peak_compute_rate(dw, TPU_V4) == TPU_V4.peak_vector_flops

    def test_roofline_point_memory_bound_low_intensity(self):
        op = OpNode("x", "dense", flops=100.0, bytes_in=1e6, unit="mxu", dims=(128, 128, 128))
        pt = roofline_point(op, TPU_V4)
        assert not pt.compute_bound
        assert pt.attained_flops == pytest.approx(op.operational_intensity * TPU_V4.hbm_bandwidth)

    def test_roofline_point_compute_bound_high_intensity(self):
        graph = OpGraph()
        op = graph.node(ops.dense(graph, "fc", batch=4096, nin=4096, nout=4096))
        pt = roofline_point(op, TPU_V4)
        assert pt.compute_bound


def simple_graph(batch=128, nin=1024, nout=1024, layers=3):
    g = OpGraph("mlp")
    last = []
    for i in range(layers):
        last = [ops.dense(g, f"fc{i}", batch, nin, nout, deps=last)]
    return g


class TestSimulator:
    def test_total_time_positive_and_sums_chain(self):
        g = simple_graph()
        res = simulate(g, TPU_V4)
        assert res.total_time_s > 0
        assert res.total_time_s == pytest.approx(res.serial_time_s)  # pure chain

    def test_parallel_branches_overlap(self):
        g = OpGraph("par")
        ops.dense(g, "stem", 128, 256, 256)
        ops.dense(g, "a", 128, 4096, 4096, deps=["stem"])
        ops.dense(g, "b", 128, 256, 256, deps=["stem"])
        ops.concat(g, "join", 128 * (4096 + 256), deps=["a", "b"])
        res = simulate(g, TPU_V4)
        assert res.total_time_s < res.serial_time_s
        assert "a" in res.critical_path and "b" not in res.critical_path

    def test_flops_conserved(self):
        g = simple_graph()
        res = simulate(g, TPU_V4)
        assert res.total_flops == pytest.approx(g.total_flops)

    def test_achieved_flops_below_peak(self):
        res = simulate(simple_graph(), TPU_V4)
        assert 0 < res.achieved_flops <= TPU_V4.peak_matrix_flops

    def test_embedding_is_memory_or_network_bound(self):
        g = OpGraph("emb")
        ops.embedding_lookup(g, "e", lookups=int(1e6), width=128)
        res = simulate(g, TPU_V4)
        timing = res.op_timings["e"]
        assert timing.bound in ("memory", "network")
        assert timing.cmem_bytes == 0  # tables never fit CMEM

    def test_small_activations_stay_in_cmem(self):
        g = OpGraph("tiny")
        ops.dense(g, "fc", batch=8, nin=64, nout=64)
        res = simulate(g, TPU_V4)
        t = res.op_timings["fc"]
        assert t.cmem_bytes > 0
        assert t.hbm_bytes == pytest.approx(64 * 64 * 2)  # params only

    def test_huge_activations_spill_to_hbm(self):
        g = OpGraph("big")
        ops.dense(g, "fc", batch=65536, nin=4096, nout=4096)
        res = simulate(g, TPU_V4)
        assert res.op_timings["fc"].hbm_bytes > res.op_timings["fc"].cmem_bytes

    def test_depthwise_slower_per_flop_than_conv(self):
        """The Figure-4 effect: depthwise FLOPs run at VPU, not MXU, rate."""
        gd, gc = OpGraph("dw"), OpGraph("conv")
        ops.depthwise_conv2d(gd, "d", 64, 64, 128, 3, batch=64)
        ops.conv2d(gc, "c", 64, 64, 128, 128, 3, batch=64)
        rd, rc = simulate(gd, TPU_V4), simulate(gc, TPU_V4)
        # conv has 128x the FLOPs but takes far less than 128x the time
        assert rc.total_time_s < rd.total_time_s * 128 / 4

    def test_bound_fraction_sums_to_one(self):
        g = simple_graph()
        res = simulate(g, TPU_V4)
        total = sum(
            res.bound_fraction(b) for b in ("compute", "memory", "network", "overhead")
        )
        assert total == pytest.approx(1.0)

    @given(st.integers(16, 512), st.integers(16, 512))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_layer_width(self, nin, nout):
        small = simulate(simple_graph(nin=nin, nout=nout, layers=2), TPU_V4)
        big = simulate(simple_graph(nin=nin * 2, nout=nout * 2, layers=2), TPU_V4)
        assert big.total_time_s >= small.total_time_s


class TestPowerModel:
    def test_power_between_idle_and_max(self):
        res = simulate(simple_graph(), TPU_V4)
        report = power_report(res, TPU_V4)
        assert TPU_V4.idle_power_w <= report.power_w <= TPU_V4.max_power_w

    def test_energy_is_power_times_time(self):
        res = simulate(simple_graph(), TPU_V4)
        report = power_report(res, TPU_V4)
        assert report.energy_j == pytest.approx(report.power_w * res.total_time_s)

    def test_memory_bound_model_draws_less_power(self):
        """Low-utilization (memory-bound) models sit near idle power."""
        g = OpGraph("memb")
        ops.embedding_lookup(g, "e", lookups=int(1e6), width=64)
        res = simulate(g, TPU_V4)
        report = power_report(res, TPU_V4)
        compute = simulate(simple_graph(batch=4096, nin=4096, nout=4096), TPU_V4)
        compute_report = power_report(compute, TPU_V4)
        assert report.power_w < compute_report.power_w

    def test_mxu_utilization_bounded(self):
        res = simulate(simple_graph(), TPU_V4)
        report = power_report(res, TPU_V4)
        assert 0 <= report.mxu_utilization <= 1


class TestTestbed:
    def test_measurement_slower_than_simulation(self):
        g = simple_graph()
        bed = HardwareTestbed(TPU_V4, seed=1)
        sim = simulate(g, TPU_V4).total_time_s
        measured = bed.deterministic_time(g)
        assert measured > sim

    def test_measurement_noise_bounded(self):
        g = simple_graph()
        bed = HardwareTestbed(TPU_V4, seed=2)
        times = [bed.measure_time(g) for _ in range(20)]
        spread = (max(times) - min(times)) / np.mean(times)
        assert 0 < spread < 0.2

    def test_deterministic_time_reproducible(self):
        g = simple_graph()
        a = HardwareTestbed(TPU_V4, seed=3).deterministic_time(g)
        b = HardwareTestbed(TPU_V4, seed=99).deterministic_time(g)
        assert a == pytest.approx(b)

    def test_gap_is_systematic_tens_of_percent(self):
        """The simulator-vs-hardware gap matches Table 1's premise."""
        g = simple_graph(batch=256, nin=2048, nout=2048, layers=8)
        bed = HardwareTestbed(TPU_V4)
        sim = simulate(g, TPU_V4).total_time_s
        hw = bed.deterministic_time(g)
        gap = hw / sim - 1.0
        assert 0.10 < gap < 0.60

    def test_custom_calibration(self):
        cal = TestbedCalibration(scale=2.0, exponent=1.0, per_op_overhead_s=0.0, noise_sigma=0.0)
        bed = HardwareTestbed(TPU_V4, calibration=cal)
        g = simple_graph()
        assert bed.deterministic_time(g) == pytest.approx(2.0 * simulate(g, TPU_V4).total_time_s)


class TestSimulatorCompilerPasses:
    def test_passes_reduce_time(self):
        from repro.graph import ops as graph_ops
        from repro.hardware.simulator import PerformanceSimulator

        graph = OpGraph("with_act")
        graph_ops.dense(graph, "fc", 64, 1024, 1024)
        graph_ops.elementwise(graph, "act", 64 * 1024, op_type="activation", deps=["fc"])
        raw = PerformanceSimulator(TPU_V4).simulate(graph)
        fused = PerformanceSimulator(TPU_V4, run_compiler_passes=True).simulate(graph)
        assert fused.total_time_s <= raw.total_time_s
        assert fused.total_flops == pytest.approx(raw.total_flops)

    def test_input_graph_not_mutated(self):
        from repro.graph import ops as graph_ops
        from repro.hardware.simulator import PerformanceSimulator

        graph = OpGraph("keep")
        graph_ops.dense(graph, "fc", 8, 64, 64)
        graph_ops.elementwise(graph, "act", 8 * 64, op_type="activation", deps=["fc"])
        PerformanceSimulator(TPU_V4, run_compiler_passes=True).simulate(graph)
        assert "act" in graph.names


class TestMemoryFit:
    def test_fits_memory(self):
        assert TPU_V4.fits_memory(1e9)
        assert not TPU_V4.fits_memory(100e9)  # 32 GB chip
        assert not TPU_V4I.fits_memory(10e9)  # 8 GB chip
