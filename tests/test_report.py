"""Tests for search reporting, the surrogate adapter, and production fleet."""

import numpy as np
import pytest

from repro.analysis import (
    decision_drift,
    format_report,
    summarize,
)
from repro.core import (
    PerformanceObjective,
    SearchConfig,
    SingleStepSearch,
    SurrogateSuperNetwork,
    relu_reward,
)
from repro.core.search import CandidateRecord, SearchResult, StepRecord
from repro.data import NullSource, SingleStepPipeline
from repro.models.production import (
    apply_cv_architecture,
    cv_production_fleet,
    cv_search_space,
    dlrm_production_fleet,
)
from repro.searchspace import Decision, SearchSpace


def tiny_space():
    return SearchSpace("tiny", [Decision("a", (0, 1, 2)), Decision("b", ("x", "y"))])


def run_tiny_search(steps=30):
    space = tiny_space()

    def quality_fn(arch):
        return float(arch["a"]) + (0.5 if arch["b"] == "y" else 0.0)

    search = SingleStepSearch(
        space=space,
        supernet=SurrogateSuperNetwork(quality_fn, seed=0),
        pipeline=SingleStepPipeline(NullSource().next_batch),
        reward_fn=relu_reward([]),
        performance_fn=lambda arch: {},
        config=SearchConfig(steps=steps, num_cores=4, warmup_steps=3, policy_lr=0.4, seed=0),
    )
    return space, search.run()


class TestSummarize:
    def test_summary_fields(self):
        space, result = run_tiny_search()
        summary = summarize(result)
        assert summary.steps == 30
        assert summary.batches_used == 120
        assert summary.final_reward > summary.initial_reward
        assert summary.final_entropy < summary.initial_entropy
        assert summary.converged

    def test_entropy_reduction_fraction(self):
        space, result = run_tiny_search()
        summary = summarize(result)
        assert 0.0 < summary.entropy_reduction <= 1.0

    def test_empty_history_rejected(self):
        empty = SearchResult(
            final_architecture=tiny_space().default_architecture(),
            history=[],
            batches_used=0,
        )
        with pytest.raises(ValueError):
            summarize(empty)

    def test_window_clamped(self):
        space, result = run_tiny_search(steps=3)
        summary = summarize(result, window=100)
        assert summary.steps == 3


class TestDecisionDrift:
    def test_no_drift_for_baseline(self):
        space = tiny_space()
        assert decision_drift(space, space.default_architecture()) == {}

    def test_drift_reported(self):
        space = tiny_space()
        searched = space.default_architecture().replaced(a=2)
        drift = decision_drift(space, searched)
        assert drift == {"a": (0, 2)}

    def test_custom_baseline(self):
        space = tiny_space()
        baseline = space.default_architecture().replaced(a=1)
        drift = decision_drift(space, space.default_architecture(), baseline)
        assert drift == {"a": (1, 0)}


class TestFormatReport:
    def test_contains_headline_numbers(self):
        space, result = run_tiny_search()
        text = format_report(space, result)
        assert "reward:" in text and "entropy:" in text
        assert "searched decisions" in text

    def test_baseline_result_message(self):
        space = tiny_space()
        record = StepRecord(0, 1.0, 1.0, 0.5, [])
        result = SearchResult(space.default_architecture(), [record], 4)
        assert "equals the baseline" in format_report(space, result)


class TestSurrogateSuperNetwork:
    def test_quality_passthrough(self):
        net = SurrogateSuperNetwork(lambda arch: 0.75)
        assert net.quality(None, None, None) == 0.75

    def test_noise_applied(self):
        net = SurrogateSuperNetwork(lambda arch: 0.5, noise_sigma=0.1, seed=0)
        values = {net.quality(None, None, None) for _ in range(10)}
        assert len(values) > 1

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            SurrogateSuperNetwork(lambda arch: 0.5, noise_sigma=-0.1)

    def test_loss_is_backpropagatable_zero(self):
        net = SurrogateSuperNetwork(lambda arch: 0.5)
        loss = net.loss(None, None, None)
        loss.backward()
        assert loss.item() == 0.0
        assert len(net.parameters()) == 1

    def test_state_round_trip_continues_the_noise_stream(self):
        # One noise stream, drawn in core order on the engine thread: it
        # rides in the snapshot, so a resumed search draws what an
        # uninterrupted one would.
        net = SurrogateSuperNetwork(lambda arch: 0.5, noise_sigma=0.1, seed=3)
        for _ in range(5):
            net.quality(None, None, None)
        resumed = SurrogateSuperNetwork(lambda arch: 0.5, noise_sigma=0.1, seed=99)
        resumed.load_state_dict(net.state_dict())
        assert [resumed.quality(None, None, None) for _ in range(8)] == [
            net.quality(None, None, None) for _ in range(8)
        ]


class TestProductionFleet:
    def test_cv_fleet_members(self):
        fleet = cv_production_fleet()
        assert set(fleet) == {f"CV{i}" for i in range(1, 6)}
        for config in fleet.values():
            assert config.resolution == 288
            assert config.activation == "relu"

    def test_dlrm_fleet_members(self):
        fleet = dlrm_production_fleet()
        assert set(fleet) == {f"DLRM{i}" for i in range(1, 6)}
        shapes = {
            (len(s.tables), s.bottom.width, s.top.width, s.lookups_per_table)
            for s in fleet.values()
        }
        assert len(shapes) == 5  # all distinct

    def test_cv_space_and_apply(self):
        space = cv_search_space()
        baseline = cv_production_fleet()["CV1"]
        arch = space.default_architecture().replaced(
            resolution=160, conv_depth_delta=4, activation="squared_relu"
        )
        searched = apply_cv_architecture(baseline, arch)
        assert searched.resolution == 160
        assert searched.conv_layers == baseline.conv_layers + 4
        assert searched.activation == "squared_relu"

    def test_apply_clamps_depths(self):
        space = cv_search_space()
        baseline = cv_production_fleet()["CV1"]
        arch = space.default_architecture().replaced(
            conv_depth_delta=-2, tfm_depth_delta=-2
        )
        searched = apply_cv_architecture(baseline, arch)
        assert searched.conv_depths[1] >= 1
        assert searched.tfm_depths[0] >= 1

    def test_all_cv_space_archs_applicable(self):
        space = cv_search_space()
        baseline = cv_production_fleet()["CV3"]
        rng = np.random.default_rng(0)
        for _ in range(20):
            config = apply_cv_architecture(baseline, space.sample(rng))
            assert config.resolution in (224, 160, 192, 256, 288)
