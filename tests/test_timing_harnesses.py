"""Tests for the CNN and ViT timing harnesses (arch -> priced op graph)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import (
    CnnBaseline,
    CnnTimingHarness,
    VitBaseline,
    VitTimingHarness,
    build_cnn_graph,
    build_vit_graph,
)
from repro.models import cnn_timing, vit_timing
from repro.searchspace import (
    CnnSpaceConfig,
    VitSpaceConfig,
    cnn_search_space,
    hybrid_vit_search_space,
    vit_search_space,
)


def cnn_setup(num_blocks=4):
    space = cnn_search_space(CnnSpaceConfig(num_blocks=num_blocks))
    return space, CnnBaseline(), CnnTimingHarness(CnnBaseline())


class TestCnnLowering:
    def test_default_graph_builds(self):
        space, baseline, _ = cnn_setup()
        graph = build_cnn_graph(baseline, space.default_architecture())
        assert graph.total_flops > 0
        assert "classifier" in graph

    def test_any_sampled_arch_builds(self):
        space, baseline, _ = cnn_setup()
        rng = np.random.default_rng(0)
        for _ in range(15):
            graph = build_cnn_graph(baseline, space.sample(rng), batch=2)
            assert graph.total_flops > 0

    def test_width_delta_changes_flops(self):
        space, baseline, _ = cnn_setup()
        base = space.default_architecture()
        wider = base.replaced(**{"block0/width_delta": 4})
        assert (
            build_cnn_graph(baseline, wider).total_flops
            > build_cnn_graph(baseline, base).total_flops
        )

    def test_resolution_scales_flops(self):
        space, baseline, _ = cnn_setup()
        small = space.default_architecture().replaced(resolution=224)
        large = small.replaced(resolution=456)
        ratio = (
            build_cnn_graph(baseline, large).total_flops
            / build_cnn_graph(baseline, small).total_flops
        )
        assert 2.5 < ratio < 6.0  # ~ (456/224)^2

    def test_space_to_depth_quadruples_channels(self):
        space, baseline, _ = cnn_setup()
        arch = space.default_architecture().replaced(
            **{"block0/reshaping": "space_to_depth"}
        )
        graph = build_cnn_graph(baseline, arch)
        assert any(op.op_type == "reshape_space_to_depth" for op in graph.nodes())
        first = next(op for op in graph.nodes() if op.name.startswith("b0l0"))
        # The first block layer now sees 4x the stem channels.
        assert first.dims[1] >= 4 * baseline.stem_width

    def test_space_to_batch_keeps_channels(self):
        space, baseline, _ = cnn_setup()
        arch = space.default_architecture().replaced(
            **{"block0/reshaping": "space_to_batch"}
        )
        graph = build_cnn_graph(baseline, arch, batch=2)
        assert any(op.op_type == "reshape_space_to_batch" for op in graph.nodes())

    def test_fused_blocks_have_more_flops(self):
        space, baseline, _ = cnn_setup()
        base = space.default_architecture()
        fused = base.replaced(
            **{f"block{b}/type": "fused_mbconv" for b in range(baseline.num_blocks)}
        )
        assert (
            build_cnn_graph(baseline, fused).total_flops
            > build_cnn_graph(baseline, base).total_flops
        )

    def test_num_params_positive_and_monotone(self):
        space, baseline, _ = cnn_setup()
        base = space.default_architecture()
        deeper = base.replaced(**{"block1/depth_delta": 3})
        assert 0 < cnn_timing.num_params(baseline, base) < cnn_timing.num_params(
            baseline, deeper
        )

    def test_baseline_validation(self):
        with pytest.raises(ValueError):
            CnnBaseline(stage_widths=(24,), stage_depths=(1, 2))
        with pytest.raises(ValueError):
            CnnBaseline(stage_widths=(4, 24), stage_depths=(1, 1))


class TestCnnTimingHarness:
    def test_metrics(self):
        space, _, harness = cnn_setup()
        metrics = harness.metrics_from_simulator(space.default_architecture())
        assert set(metrics) == {"train_step_time", "serving_latency", "model_size"}
        assert all(v > 0 for v in metrics.values())

    def test_testbed_slower_than_simulator(self):
        space, _, harness = cnn_setup()
        arch = space.default_architecture()
        sim = harness.simulate(arch)
        hw = harness.measure(arch)
        assert hw[0] > sim[0] and hw[1] > sim[1]

    @given(st.integers(0, 3000))
    @settings(max_examples=10, deadline=None)
    def test_any_arch_times_positive(self, seed):
        space, _, harness = cnn_setup()
        arch = space.sample(np.random.default_rng(seed))
        train, serve = harness.simulate(arch)
        assert train > 0 and serve > 0


def vit_setup():
    space = vit_search_space(VitSpaceConfig(num_tfm_blocks=2))
    return space, VitBaseline(), VitTimingHarness(VitBaseline())


class TestVitLowering:
    def test_default_graph_builds(self):
        space, baseline, _ = vit_setup()
        graph = build_vit_graph(baseline, space.default_architecture())
        assert graph.total_flops > 0

    def test_any_sampled_arch_builds(self):
        space, baseline, _ = vit_setup()
        rng = np.random.default_rng(1)
        for _ in range(15):
            graph = build_vit_graph(baseline, space.sample(rng), batch=2)
            assert graph.total_flops > 0

    def test_hidden_size_scales_flops(self):
        space, baseline, _ = vit_setup()
        small = space.default_architecture().replaced(
            **{"tfm0/hidden_size": 64, "tfm1/hidden_size": 64}
        )
        large = space.default_architecture().replaced(
            **{"tfm0/hidden_size": 512, "tfm1/hidden_size": 512}
        )
        assert (
            build_vit_graph(baseline, large).total_flops
            > build_vit_graph(baseline, small).total_flops * 10
        )

    def test_low_rank_reduces_qkv_flops(self):
        space, baseline, _ = vit_setup()
        full = space.default_architecture().replaced(
            **{"tfm0/hidden_size": 512, "tfm1/hidden_size": 512}
        )
        factored = full.replaced(**{"tfm0/low_rank": 0.2, "tfm1/low_rank": 0.2})
        assert (
            build_vit_graph(baseline, factored).total_flops
            < build_vit_graph(baseline, full).total_flops
        )

    def test_seq_pooling_reduces_flops(self):
        space, baseline, _ = vit_setup()
        base = space.default_architecture().replaced(
            **{"tfm0/hidden_size": 256, "tfm1/hidden_size": 256}
        )
        pooled = base.replaced(**{"tfm0/seq_pooling": True})
        assert (
            build_vit_graph(baseline, pooled).total_flops
            < build_vit_graph(baseline, base).total_flops
        )

    def test_primer_adds_depthwise_op(self):
        space, baseline, _ = vit_setup()
        arch = space.default_architecture().replaced(**{"tfm0/primer": True})
        graph = build_vit_graph(baseline, arch)
        assert any("primer_dw" in op.name for op in graph.nodes())

    def test_hybrid_space_stem_decisions_honoured(self):
        space = hybrid_vit_search_space()
        baseline = VitBaseline()
        arch = space.default_architecture().replaced(patch_size=32, resolution=224)
        coarse = build_vit_graph(baseline, arch)
        fine = build_vit_graph(
            baseline, arch.replaced(patch_size=8)
        )
        assert fine.total_flops > coarse.total_flops  # 16x the tokens

    def test_num_params_tracks_rank(self):
        space, baseline, _ = vit_setup()
        full = space.default_architecture().replaced(
            **{"tfm0/hidden_size": 512, "tfm1/hidden_size": 512}
        )
        factored = full.replaced(**{"tfm0/low_rank": 0.1, "tfm1/low_rank": 0.1})
        assert vit_timing.num_params(baseline, factored) < vit_timing.num_params(
            baseline, full
        )

    def test_baseline_validation(self):
        with pytest.raises(ValueError):
            VitBaseline(base_depth=0)
        with pytest.raises(ValueError):
            VitBaseline(resolution=8, patch_size=16)


class TestVitTimingHarness:
    def test_metrics(self):
        space, _, harness = vit_setup()
        metrics = harness.metrics_from_simulator(space.default_architecture())
        assert all(v > 0 for v in metrics.values())

    def test_testbed_slower_than_simulator(self):
        space, _, harness = vit_setup()
        arch = space.default_architecture()
        assert harness.measure(arch)[0] > harness.simulate(arch)[0]

    @given(st.integers(0, 3000))
    @settings(max_examples=10, deadline=None)
    def test_any_arch_times_positive(self, seed):
        space, _, harness = vit_setup()
        arch = space.sample(np.random.default_rng(seed))
        train, serve = harness.simulate(arch)
        assert train > 0 and serve > 0


@pytest.mark.parametrize(
    "setup, build", [(cnn_setup, build_cnn_graph), (vit_setup, build_vit_graph)]
)
def test_measure_goes_through_the_testbed_retry_policy(setup, build):
    """One harness for every space: CNN and ViT measure through
    ``HardwareTestbed.measure`` like DLRM — the value of one
    ``measure_time`` draw under the default policy — and report what
    the policy spent."""
    from repro.hardware import TPU_V4, TPU_V4I, HardwareTestbed

    space, baseline, harness = setup()
    arch = space.default_architecture()
    want = (
        HardwareTestbed(TPU_V4, seed=0).measure_time(build(baseline, arch, batch=64)),
        HardwareTestbed(TPU_V4I, seed=1).measure_time(build(baseline, arch, batch=8)),
    )
    assert harness.measure(arch) == want
    assert harness.measurement_retries == 0 and harness.measurement_timeouts == 0
