"""Regression tests pinning the reproduction's calibration anchors.

The benchmark suite validates *shape* claims; these fast tests pin the
specific calibrated quantities the shapes depend on, so an innocent
refactor cannot silently drift the paper-matching numbers.  Each test
names the paper artifact it protects.
"""

import pytest

from repro.hardware import TPU_V4, TPU_V4I, HardwareTestbed, simulate
from repro.models import COATNET, COATNET_H, baseline_production_dlrm, dlrm_h
from repro.models.coatnet import build_graph as build_coatnet
from repro.models.coatnet import num_params as coatnet_params
from repro.models.dlrm import build_graph as build_dlrm
from repro.models.dlrm import pipeline_times
from repro.quality import DlrmQualityModel, coatnet_quality
from repro.searchspace import table5_size_rows


class TestTable5Anchors:
    def test_space_sizes_pinned(self):
        rows = table5_size_rows()
        assert rows["cnn"].log10_size == pytest.approx(39.3, abs=0.15)
        assert rows["dlrm"].log10_size == pytest.approx(282.0, abs=0.15)
        assert rows["vit"].log10_size == pytest.approx(8.5, abs=0.15)
        assert rows["hybrid_vit"].log10_size == pytest.approx(21.6, abs=0.15)


class TestTable3Anchors:
    def test_quality_ladder_pinned(self):
        base = COATNET["5"]
        assert coatnet_quality(base) == pytest.approx(89.7, abs=0.1)
        assert coatnet_quality(base.with_deeper_conv(4)) == pytest.approx(90.3, abs=0.1)
        assert coatnet_quality(
            base.with_deeper_conv(4).with_resolution(160)
        ) == pytest.approx(88.9, abs=0.1)
        assert coatnet_quality(COATNET_H["5"]) == pytest.approx(89.7, abs=0.1)

    def test_c5_size_pinned(self):
        assert coatnet_params(COATNET["5"]) / 1e6 == pytest.approx(697, abs=15)

    def test_flops_halving_pinned(self):
        g5 = build_coatnet(COATNET["5"], batch=4)
        gh5 = build_coatnet(COATNET_H["5"], batch=4)
        assert gh5.total_flops / g5.total_flops == pytest.approx(0.49, abs=0.05)


class TestFigure7Anchors:
    def test_speedup_and_traffic_pinned(self):
        r5 = simulate(build_coatnet(COATNET["5"], batch=64), TPU_V4)
        rh5 = simulate(build_coatnet(COATNET_H["5"], batch=64), TPU_V4)
        assert r5.total_time_s / rh5.total_time_s == pytest.approx(2.1, abs=0.3)
        assert rh5.hbm_bytes / r5.hbm_bytes == pytest.approx(0.53, abs=0.1)


class TestFigure8Anchors:
    def test_dlrm_rebalance_pinned(self):
        base = baseline_production_dlrm()
        searched = dlrm_h(base)
        t_base = pipeline_times(simulate(build_dlrm(base), TPU_V4))
        t_h = pipeline_times(simulate(build_dlrm(searched), TPU_V4))
        assert t_h["step"] / t_base["step"] == pytest.approx(0.90, abs=0.05)
        quality = DlrmQualityModel(base)
        delta = quality.quality(searched) - quality.quality(base)
        assert delta == pytest.approx(0.02, abs=0.01)


class TestTestbedAnchors:
    def test_simulator_hardware_gap_band(self):
        """Table 1's premise: a systematic tens-of-percent gap."""
        from repro.graph import OpGraph, ops

        graph = OpGraph("probe")
        last = []
        for i in range(8):
            last = [ops.dense(graph, f"fc{i}", 256, 2048, 2048, deps=last)]
        bed = HardwareTestbed(TPU_V4)
        gap = bed.deterministic_time(graph) / bed.simulate(graph).total_time_s - 1.0
        assert 0.15 < gap < 0.45

    def test_ridge_points_pinned(self):
        assert TPU_V4.ridge_intensity == pytest.approx(224, abs=5)
        assert TPU_V4I.ridge_intensity == pytest.approx(225, abs=10)
