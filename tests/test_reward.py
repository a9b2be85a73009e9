"""Tests for the ReLU and absolute-value reward functions (Section 6.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PerformanceObjective, absolute_reward, relu_reward


def objective(metric="latency", target=10.0, beta=-1.0):
    return PerformanceObjective(metric=metric, target=target, beta=beta)


class TestPerformanceObjective:
    def test_overshoot(self):
        obj = objective(target=10.0)
        assert obj.overshoot({"latency": 15.0}) == pytest.approx(0.5)
        assert obj.overshoot({"latency": 5.0}) == pytest.approx(-0.5)

    def test_missing_metric(self):
        with pytest.raises(KeyError):
            objective().overshoot({"throughput": 1.0})

    def test_target_must_be_positive(self):
        with pytest.raises(ValueError):
            objective(target=0.0)

    def test_beta_must_be_negative(self):
        with pytest.raises(ValueError):
            PerformanceObjective("latency", 10.0, beta=0.5)
        with pytest.raises(ValueError):
            PerformanceObjective("latency", 10.0, beta=0.0)


class TestReluReward:
    def test_no_penalty_at_or_under_target(self):
        """The single-sided property: over-achievers are never penalized."""
        reward = relu_reward([objective(target=10.0)])
        assert reward(0.8, {"latency": 10.0}) == pytest.approx(0.8)
        assert reward(0.8, {"latency": 5.0}) == pytest.approx(0.8)
        assert reward(0.8, {"latency": 0.1}) == pytest.approx(0.8)

    def test_linear_penalty_above_target(self):
        reward = relu_reward([objective(target=10.0, beta=-2.0)])
        assert reward(0.8, {"latency": 15.0}) == pytest.approx(0.8 - 2.0 * 0.5)

    def test_scale_invariance(self):
        """Normalizing by T0 makes the reward unit-free."""
        r_ms = relu_reward([objective(target=10.0)])(0.5, {"latency": 12.0})
        r_us = relu_reward([objective(target=10_000.0)])(0.5, {"latency": 12_000.0})
        assert r_ms == pytest.approx(r_us)

    def test_multiple_objectives_sum(self):
        reward = relu_reward(
            [
                objective("latency", 10.0, beta=-1.0),
                objective("model_size", 100.0, beta=-0.5),
            ]
        )
        value = reward(1.0, {"latency": 20.0, "model_size": 120.0})
        assert value == pytest.approx(1.0 - 1.0 * 1.0 - 0.5 * 0.2)


class TestAbsoluteReward:
    def test_penalizes_both_sides(self):
        """TuNAS' flaw: over-achievers ARE penalized."""
        reward = absolute_reward([objective(target=10.0)])
        assert reward(0.8, {"latency": 5.0}) < 0.8
        assert reward(0.8, {"latency": 15.0}) < 0.8

    def test_equal_at_target(self):
        relu = relu_reward([objective()])
        absv = absolute_reward([objective()])
        metrics = {"latency": 10.0}
        assert relu(0.7, metrics) == pytest.approx(absv(0.7, metrics))

    @given(st.floats(0.01, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_relu_geq_absolute_everywhere(self, latency):
        """For beta < 0, the ReLU reward never under-scores vs absolute."""
        relu = relu_reward([objective(target=10.0)])
        absv = absolute_reward([objective(target=10.0)])
        metrics = {"latency": latency}
        assert relu(0.5, metrics) >= absv(0.5, metrics) - 1e-12

    @given(st.floats(10.0, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_rewards_identical_above_target(self, latency):
        """Above target the two rewards agree — the single-objective tie."""
        relu = relu_reward([objective(target=10.0)])
        absv = absolute_reward([objective(target=10.0)])
        metrics = {"latency": latency}
        assert relu(0.5, metrics) == pytest.approx(absv(0.5, metrics))


class TestRewardFunctionApi:
    def test_invalid_kind(self):
        from repro.core.reward import RewardFunction

        with pytest.raises(ValueError):
            RewardFunction([], kind="quadratic")

    def test_zero_quality_leaves_the_penalty(self):
        reward = relu_reward([objective(target=10.0, beta=-1.0)])
        assert reward(0.0, {"latency": 20.0}) == pytest.approx(-1.0)

    def test_no_objectives_means_pure_quality(self):
        reward = relu_reward([])
        assert reward(0.9, {}) == pytest.approx(0.9)
