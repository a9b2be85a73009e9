"""Tests for the model families: MBConv, EfficientNet, CoAtNet, DLRM."""

import numpy as np
import pytest

from repro.graph import UNIT_MXU, UNIT_VPU
from repro.hardware import TPU_V4, TPU_V4I, simulate
from repro.models import (
    COATNET,
    COATNET_H,
    EFFICIENTNET_H,
    EFFICIENTNET_X,
    MbconvSpec,
    baseline_production_dlrm,
    block_params,
    dlrm_h,
    pipeline_times,
    single_block_graph,
)
from repro.models import coatnet, dlrm, efficientnet
from repro.models.timing import DlrmTimingHarness
from repro.searchspace import DlrmSpaceConfig, dlrm_search_space


class TestMbconv:
    def test_mbconv_has_depthwise_on_vpu(self):
        g = single_block_graph(MbconvSpec("mbconv", 32, 32), resolution=28)
        units = {op.op_type: op.unit for op in g.nodes()}
        assert units["depthwise_conv2d"] == UNIT_VPU
        assert units["conv2d"] == UNIT_MXU

    def test_fused_has_no_depthwise(self):
        g = single_block_graph(MbconvSpec("fused_mbconv", 32, 32), resolution=28)
        assert all(op.op_type != "depthwise_conv2d" for op in g.nodes())

    def test_fused_more_flops_than_mbconv(self):
        """Figure 4's premise: fusion trades FLOPs for intensity."""
        mb = single_block_graph(MbconvSpec("mbconv", 64, 64), 28)
        fused = single_block_graph(MbconvSpec("fused_mbconv", 64, 64), 28)
        assert fused.total_flops > mb.total_flops

    def test_fused_higher_operational_intensity(self):
        mb = single_block_graph(MbconvSpec("mbconv", 64, 64), 28)
        fused = single_block_graph(MbconvSpec("fused_mbconv", 64, 64), 28)
        assert (
            fused.total_flops / fused.total_bytes > mb.total_flops / mb.total_bytes
        )

    def test_fmbconv_wins_small_depth_loses_large_depth(self):
        """Figure 4c's crossover: F-MBC(32) faster, F-MBC(128) slower."""
        def latency(block_type, depth):
            spec = MbconvSpec(block_type, depth, depth, se_ratio=0.0)
            g = single_block_graph(spec, resolution=56, batch=64)
            return simulate(g, TPU_V4I).total_time_s

        assert latency("fused_mbconv", 32) < latency("mbconv", 32)
        assert latency("fused_mbconv", 128) > latency("mbconv", 128)

    def test_block_params_positive_and_monotone(self):
        small = block_params(MbconvSpec("mbconv", 32, 32))
        big = block_params(MbconvSpec("mbconv", 64, 64))
        assert 0 < small < big

    def test_invalid_block_type(self):
        with pytest.raises(ValueError):
            MbconvSpec("superconv", 32, 32)

    def test_se_adds_ops(self):
        with_se = single_block_graph(MbconvSpec("mbconv", 32, 32, se_ratio=0.25), 28)
        without = single_block_graph(MbconvSpec("mbconv", 32, 32, se_ratio=0.0), 28)
        assert len(with_se) > len(without)

    def test_skip_only_when_shapes_match(self):
        same = single_block_graph(MbconvSpec("mbconv", 32, 32, stride=1), 28)
        strided = single_block_graph(MbconvSpec("mbconv", 32, 32, stride=2), 28)
        assert any("skip_add" in op.name for op in same.nodes())
        assert not any("skip_add" in op.name for op in strided.nodes())


class TestEfficientNet:
    def test_family_sizes_increase(self):
        params = [efficientnet.num_params(EFFICIENTNET_X[f"b{i}"]) for i in range(8)]
        assert all(a < b for a, b in zip(params, params[1:]))

    def test_b0_param_count_plausible(self):
        """B0 should land in the single-digit-millions range."""
        p = efficientnet.num_params(EFFICIENTNET_X["b0"])
        assert 3e6 < p < 15e6

    def test_h_family_same_for_small_models(self):
        """EfficientNet-H B0-B4 are identical to the baseline (Table 4)."""
        for idx in ("b0", "b1", "b2", "b3", "b4"):
            assert EFFICIENTNET_H[idx].expansions is None

    def test_h_family_differs_for_large_models(self):
        for idx in ("b5", "b6", "b7"):
            assert EFFICIENTNET_H[idx].expansions is not None

    def test_h_faster_on_training_hw_for_b5_plus(self):
        gx = efficientnet.build_graph(EFFICIENTNET_X["b6"], batch=8)
        gh = efficientnet.build_graph(EFFICIENTNET_H["b6"], batch=8)
        tx = simulate(gx, TPU_V4).total_time_s
        th = simulate(gh, TPU_V4).total_time_s
        assert th < tx

    def test_graph_builds_for_all_members(self):
        for idx in ("b0", "b4", "b7"):
            g = efficientnet.build_graph(EFFICIENTNET_X[idx], batch=1)
            assert g.total_flops > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            efficientnet.EfficientNetConfig("bad", 0.0, 1.0, 224)
        with pytest.raises(ValueError):
            efficientnet.EfficientNetConfig("bad", 1.0, 1.0, 224, expansions=(4,))


class TestCoatNet:
    def test_c5_matches_published_size(self):
        p = coatnet.num_params(COATNET["5"])
        assert abs(p / 1e6 - 688) < 30  # paper: 688M

    def test_h5_adds_conv_layers(self):
        assert COATNET_H["5"].conv_layers == COATNET["5"].conv_layers + 4

    def test_h5_resolution_and_activation(self):
        assert COATNET_H["5"].resolution == 160
        assert COATNET_H["5"].activation == "squared_relu"

    def test_h5_roughly_halves_flops(self):
        g5 = coatnet.build_graph(COATNET["5"], batch=8)
        gh5 = coatnet.build_graph(COATNET_H["5"], batch=8)
        ratio = gh5.total_flops / g5.total_flops
        assert 0.40 < ratio < 0.60  # paper: 476/1012 = 0.47

    def test_h5_faster_despite_same_params(self):
        g5 = coatnet.build_graph(COATNET["5"], batch=16)
        gh5 = coatnet.build_graph(COATNET_H["5"], batch=16)
        r5, rh5 = simulate(g5, TPU_V4), simulate(gh5, TPU_V4)
        speedup = r5.total_time_s / rh5.total_time_s
        assert 1.5 < speedup < 2.6  # paper: 1.84x

    def test_family_sizes_increase(self):
        params = [coatnet.num_params(COATNET[str(i)]) for i in range(6)]
        assert all(a < b for a, b in zip(params, params[1:]))

    def test_searched_changes_composable(self):
        cfg = COATNET["2"].with_deeper_conv(2).with_resolution(192).with_activation("relu")
        assert cfg.conv_layers == COATNET["2"].conv_layers + 2
        assert cfg.resolution == 192
        assert cfg.activation == "relu"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            coatnet.CoatNetConfig("bad", 0, (1, 1), (1, 1), (1, 1), (1, 1))


class TestDlrm:
    def test_graph_has_parallel_pipelines(self):
        spec = baseline_production_dlrm(num_tables=4)
        g = dlrm.build_graph(spec)
        result = simulate(g, TPU_V4)
        times = pipeline_times(result)
        assert times["embedding"] > 0 and times["dnn"] > 0
        # Critical path ~ MAX of the pipelines, not their sum.
        assert result.total_time_s < times["embedding"] + times["dnn"]

    def test_baseline_is_mlp_bound(self):
        """The paper's load imbalance: DNN time exceeds embedding time."""
        spec = baseline_production_dlrm()
        times = pipeline_times(simulate(dlrm.build_graph(spec), TPU_V4))
        assert times["dnn"] > times["embedding"]

    def test_dlrm_h_rebalances_and_speeds_up(self):
        """Figure 8: ~10% step-time gain from pipeline rebalancing."""
        base = baseline_production_dlrm()
        searched = dlrm_h(base)
        t_base = pipeline_times(simulate(dlrm.build_graph(base), TPU_V4))
        t_h = pipeline_times(simulate(dlrm.build_graph(searched), TPU_V4))
        gain = t_base["step"] / t_h["step"]
        assert 1.05 < gain < 1.25  # paper: ~1.10
        # The searched model narrows the embedding/DNN gap.
        def imbalance(t):
            return abs(t["dnn"] - t["embedding"]) / t["step"]
        assert imbalance(t_h) < imbalance(t_base)

    def test_dlrm_h_grows_embeddings(self):
        base = baseline_production_dlrm()
        searched = dlrm_h(base)
        assert searched.embedding_param_bytes > base.embedding_param_bytes

    def test_num_params_dominated_by_embeddings(self):
        spec = baseline_production_dlrm()
        total = dlrm.num_params(spec)
        emb = sum(t.vocab * t.width for t in spec.tables)
        assert emb / total > 0.8

    def test_low_rank_reduces_flops(self):
        spec = baseline_production_dlrm(num_tables=2)
        import dataclasses

        factored = dataclasses.replace(
            spec, top=dataclasses.replace(spec.top, low_rank=0.25)
        )
        assert (
            dlrm.build_graph(factored).total_flops
            < dlrm.build_graph(spec).total_flops
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            dlrm.TableSpec(vocab=0, width=8)
        with pytest.raises(ValueError):
            dlrm.MlpStackSpec(width=8, depth=1, low_rank=0.0)

    def test_apply_architecture_roundtrip(self):
        space = dlrm_search_space(DlrmSpaceConfig(num_tables=4, num_dense_stacks=2))
        base = baseline_production_dlrm(num_tables=4)
        arch = space.default_architecture()
        candidate = dlrm.apply_architecture(base, arch)
        assert candidate.tables == base.tables
        assert candidate.bottom == base.bottom

    def test_apply_architecture_deltas(self):
        space = dlrm_search_space(DlrmSpaceConfig(num_tables=4, num_dense_stacks=2))
        base = baseline_production_dlrm(num_tables=4)
        arch = space.default_architecture().replaced(
            **{
                "emb0/width_delta": 2,
                "emb0/vocab_scale": 0.5,
                "dense0/width_delta": -2,
                "dense1/depth_delta": 1,
                "dense1/low_rank": 0.5,
            }
        )
        candidate = dlrm.apply_architecture(base, arch)
        assert candidate.tables[0].width == base.tables[0].width + 16
        assert candidate.tables[0].vocab == base.tables[0].vocab // 2
        assert candidate.bottom.width == base.bottom.width - 16
        assert candidate.top.depth == base.top.depth + 1
        assert candidate.top.low_rank == 0.5


class TestDlrmTimingHarness:
    def make(self):
        base = baseline_production_dlrm(num_tables=4)
        space = dlrm_search_space(DlrmSpaceConfig(num_tables=4, num_dense_stacks=2))
        return DlrmTimingHarness(base, seed=1), space

    def test_simulate_and_measure_positive(self):
        harness, space = self.make()
        arch = space.sample(np.random.default_rng(0))
        sim_train, sim_serve = harness.simulate(arch)
        hw_train, hw_serve = harness.measure(arch)
        assert 0 < sim_train < hw_train  # testbed slower than simulator
        assert 0 < sim_serve < hw_serve

    def test_serving_uses_inference_chip_and_small_batch(self):
        harness, space = self.make()
        arch = space.default_architecture()
        train_time, serve_time = harness.simulate(arch)
        assert serve_time < train_time

    def test_model_size_tracks_capacity(self):
        harness, space = self.make()
        base = space.default_architecture()
        bigger = base.replaced(**{"emb0/vocab_scale": 2.0})
        assert harness.model_size(bigger) > harness.model_size(base)

    def test_metrics_dict(self):
        harness, space = self.make()
        metrics = harness.metrics_from_simulator(space.default_architecture())
        assert set(metrics) == {"train_step_time", "serving_latency", "model_size"}
        assert all(v > 0 for v in metrics.values())

    def test_metrics_lower_the_architecture_once(self, monkeypatch):
        """Pricing a candidate is one lowering feeding both the timing and
        the size, and the numbers are those of the separate calls."""
        harness, space = self.make()
        arch = space.sample(np.random.default_rng(2))
        lowered = []

        def counting_spec_of(a):
            lowered.append(a)
            return DlrmTimingHarness.spec_of(harness, a)

        monkeypatch.setattr(harness, "spec_of", counting_spec_of)
        metrics = harness.metrics_from_simulator(arch)
        assert len(lowered) == 1
        train_time, serve_time = harness.simulate(arch)
        assert metrics == {
            "train_step_time": train_time,
            "serving_latency": serve_time,
            "model_size": harness.model_size(arch),
        }

    def test_deterministic_measure_stable(self):
        harness, space = self.make()
        arch = space.default_architecture()
        a = harness.measure_deterministic(arch)
        b = harness.measure_deterministic(arch)
        assert a == b
