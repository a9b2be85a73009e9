"""Tests for DLRM embedding-table sharding."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import TPU_V4, TPU_V4I
from repro.models import TableSpec, baseline_production_dlrm
from repro.models.dlrm_sharding import (
    ShardPlan,
    embedding_step_time,
    plan_sharding,
)


def spec_with_tables(widths, vocab=100_000, num_chips_batch=4096):
    base = baseline_production_dlrm(num_tables=len(widths))
    tables = tuple(TableSpec(vocab=vocab, width=w) for w in widths)
    return dataclasses.replace(base, tables=tables)


class TestPlanSharding:
    def test_every_table_assigned_once(self):
        spec = baseline_production_dlrm(num_tables=10)
        plan = plan_sharding(spec, num_chips=4)
        assigned = [t for chip in plan.assignments for t in chip]
        assert sorted(assigned) == list(range(10))

    def test_single_chip(self):
        spec = baseline_production_dlrm(num_tables=4)
        plan = plan_sharding(spec, 1)
        assert len(plan.assignments) == 1
        assert sorted(plan.assignments[0]) == [0, 1, 2, 3]
        assert plan.load_imbalance == pytest.approx(1.0)

    def test_uniform_tables_balance_perfectly(self):
        spec = spec_with_tables([32] * 8)
        plan = plan_sharding(spec, 4)
        assert plan.load_imbalance == pytest.approx(1.0)
        assert all(len(chip) == 2 for chip in plan.assignments)

    def test_skewed_tables_lpt_heuristic(self):
        """One giant table: it gets a chip almost to itself."""
        spec = spec_with_tables([256, 8, 8, 8, 8, 8, 8, 8])
        plan = plan_sharding(spec, 2)
        big_chip = next(
            chip for chip in plan.assignments if 0 in chip
        )
        assert len(big_chip) == 1  # the 256-wide table rides alone

    def test_resident_bytes_tracked(self):
        spec = spec_with_tables([32, 32])
        plan = plan_sharding(spec, 2)
        expected = 100_000 * 32 * 4.0
        assert plan.resident_bytes == (expected, expected)

    def test_fits_memory(self):
        small = plan_sharding(spec_with_tables([8, 8]), 2)
        assert small.fits_memory(TPU_V4)
        huge = plan_sharding(
            spec_with_tables([512] * 4, vocab=50_000_000), 1
        )
        assert not huge.fits_memory(TPU_V4I)  # 8 GB chip

    def test_validation(self):
        spec = baseline_production_dlrm(num_tables=2)
        with pytest.raises(ValueError):
            plan_sharding(spec, 0)

    @given(st.integers(1, 16), st.integers(1, 24))
    @settings(max_examples=30, deadline=None)
    def test_imbalance_bounded_by_lpt(self, num_chips, num_tables):
        rng = np.random.default_rng(num_chips * 31 + num_tables)
        widths = [int(w) for w in rng.choice([8, 16, 32, 64, 128], size=num_tables)]
        plan = plan_sharding(spec_with_tables(widths), num_chips)
        if num_tables >= num_chips:
            # LPT guarantee: makespan within 4/3 + small slack of optimal,
            # and optimal >= mean, so imbalance <= ~4/3 + max-item effects.
            assert plan.load_imbalance <= max(
                4.0 / 3.0 + 0.35,
                max(plan.lookup_bytes) / (sum(plan.lookup_bytes) / num_chips),
            )


class TestEmbeddingStepTime:
    def test_single_chip_no_network(self):
        spec = baseline_production_dlrm(num_tables=4)
        time = embedding_step_time(spec, plan_sharding(spec, 1))
        assert time.all_to_all_time_s == 0.0
        assert time.gather_time_s > 0

    def test_more_chips_reduce_gather_time(self):
        spec = baseline_production_dlrm(num_tables=32)
        t1 = embedding_step_time(spec, plan_sharding(spec, 1))
        t8 = embedding_step_time(spec, plan_sharding(spec, 8))
        assert t8.gather_time_s < t1.gather_time_s

    def test_all_to_all_fraction_grows_with_chips(self):
        """More chips, more of each gather crosses the network."""
        spec = spec_with_tables([32] * 32)
        t2 = embedding_step_time(spec, plan_sharding(spec, 2))
        t16 = embedding_step_time(spec, plan_sharding(spec, 16))
        frac2 = t2.all_to_all_time_s / (t2.gather_time_s + 1e-30)
        frac16 = t16.all_to_all_time_s / (t16.gather_time_s + 1e-30)
        assert frac16 > frac2

    def test_scaling_out_reduces_total_time(self):
        spec = baseline_production_dlrm(num_tables=32)
        t1, t16 = (embedding_step_time(spec, plan_sharding(spec, chips)) for chips in (1, 16))
        # Scaling out helps overall for this workload.
        assert t16.gather_time_s + t16.all_to_all_time_s < t1.gather_time_s + t1.all_to_all_time_s
