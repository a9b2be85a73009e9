"""Tests for the categorical REINFORCE controller."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CategoricalPolicy, ReinforceController
from repro.core.controller import BaselineTracker
from repro.searchspace import Decision, SearchSpace


def small_space():
    return SearchSpace(
        "small",
        [Decision("a", (0, 1, 2)), Decision("b", ("x", "y"))],
    )


class TestCategoricalPolicy:
    def test_initial_distribution_uniform(self):
        policy = CategoricalPolicy(small_space())
        for probs in policy.probabilities():
            np.testing.assert_allclose(probs, 1.0 / len(probs))

    def test_sample_matches_indices(self):
        policy = CategoricalPolicy(small_space())
        arch, indices = policy.sample(np.random.default_rng(0))
        assert policy.space.indices_of(arch).tolist() == indices.tolist()

    def test_log_prob_of_uniform(self):
        policy = CategoricalPolicy(small_space())
        lp = policy.log_prob([0, 0])
        assert lp == pytest.approx(np.log(1 / 3) + np.log(1 / 2))

    def test_entropy_decreases_after_consistent_updates(self):
        policy = CategoricalPolicy(small_space())
        before = policy.entropy()
        target = np.array([2, 1])
        for _ in range(50):
            policy.reinforce_update([(target, 1.0)], learning_rate=0.3)
        assert policy.entropy() < before

    def test_reinforce_moves_towards_rewarded_choice(self):
        policy = CategoricalPolicy(small_space())
        target = np.array([2, 1])
        for _ in range(100):
            policy.reinforce_update([(target, 1.0)], learning_rate=0.3)
        best = policy.most_probable_architecture()
        assert best["a"] == 2 and best["b"] == "y"

    def test_negative_advantage_pushes_away(self):
        policy = CategoricalPolicy(small_space())
        bad = np.array([0, 0])
        for _ in range(100):
            policy.reinforce_update([(bad, -1.0)], learning_rate=0.3)
        probs = policy.probabilities()
        assert probs[0][0] < 1 / 3
        assert probs[1][0] < 1 / 2

    def test_update_with_no_samples_is_noop(self):
        policy = CategoricalPolicy(small_space())
        before = [logit.copy() for logit in policy.logits]
        policy.reinforce_update([], learning_rate=0.3)
        for a, b in zip(before, policy.logits):
            np.testing.assert_array_equal(a, b)

    def test_cross_shard_update_averages(self):
        """Two opposite samples with equal advantage cancel on decision b."""
        policy = CategoricalPolicy(small_space())
        policy.reinforce_update(
            [(np.array([0, 0]), 1.0), (np.array([0, 1]), 1.0)],
            learning_rate=0.5,
        )
        probs_b = policy.probabilities()[1]
        np.testing.assert_allclose(probs_b, [0.5, 0.5])

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_probabilities_always_normalized(self, seed):
        policy = CategoricalPolicy(small_space())
        rng = np.random.default_rng(seed)
        for _ in range(10):
            _, idx = policy.sample(rng)
            policy.reinforce_update([(idx, float(rng.normal()))], 0.5)
        for probs in policy.probabilities():
            assert probs.sum() == pytest.approx(1.0)
            assert np.all(probs >= 0)


class TestBaselineTracker:
    def test_first_reward_has_full_advantage(self):
        tracker = BaselineTracker()
        assert tracker.advantage(0.5) == 0.5

    def test_baseline_tracks_mean(self):
        tracker = BaselineTracker(momentum=0.0)
        tracker.update([1.0, 3.0])
        assert tracker.value == pytest.approx(2.0)
        assert tracker.advantage(2.5) == pytest.approx(0.5)

    def test_momentum_smoothing(self):
        tracker = BaselineTracker(momentum=0.5)
        tracker.update([2.0])
        tracker.update([4.0])
        assert tracker.value == pytest.approx(3.0)

    def test_empty_update(self):
        tracker = BaselineTracker()
        tracker.update([])
        assert tracker.value is None


class TestReinforceController:
    def test_learns_a_planted_optimum(self):
        """Controller converges on the decision combination with max reward."""
        space = small_space()
        controller = ReinforceController(space, learning_rate=0.4, seed=0)
        target = {"a": 1, "b": "x"}
        for _ in range(150):
            samples = []
            for _ in range(4):
                arch, idx = controller.sample()
                reward = sum(float(arch[k] == v) for k, v in target.items())
                samples.append((idx, reward))
            controller.update(samples)
        best = controller.best_architecture()
        assert best["a"] == 1 and best["b"] == "x"

    def test_sample_many(self):
        controller = ReinforceController(small_space(), seed=1)
        samples = controller.sample_many(5)
        assert len(samples) == 5

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            ReinforceController(small_space(), learning_rate=0.0)

    def test_entropy_reported(self):
        controller = ReinforceController(small_space())
        assert controller.entropy() == pytest.approx(np.log(3) + np.log(2))


def trained_controller(seed=0, steps=30):
    controller = ReinforceController(small_space(), learning_rate=0.4, seed=seed)
    for _ in range(steps):
        samples = []
        for _ in range(4):
            arch, idx = controller.sample()
            samples.append((idx, float(arch["a"] == 2) + float(arch["b"] == "y")))
        controller.update(samples)
    return controller


class TestPolicyState:
    """A policy persists as its ``state_dict``, inside checkpoint snapshots."""

    def test_roundtrip_preserves_logits(self):
        policy = trained_controller().policy
        restored = CategoricalPolicy(small_space())
        restored.load_state_dict(policy.state_dict())
        for original, loaded in zip(policy.logits, restored.logits):
            np.testing.assert_array_equal(original, loaded)

    def test_roundtrip_preserves_argmax(self):
        policy = trained_controller().policy
        restored = CategoricalPolicy(small_space())
        restored.load_state_dict(policy.state_dict())
        assert restored.most_probable_architecture() == policy.most_probable_architecture()

    def test_state_is_a_copy_both_ways(self):
        policy = trained_controller().policy
        state = policy.state_dict()
        before = [logit.copy() for logit in policy.logits]
        state["logits"][0][:] = 99.0  # the snapshot does not alias the policy
        restored = CategoricalPolicy(small_space())
        restored.load_state_dict(policy.state_dict())
        restored.logits[1][:] = -99.0  # ...and a restored policy does not alias it
        for original, kept in zip(policy.logits, before):
            np.testing.assert_array_equal(original, kept)

    def test_space_mismatch_rejected(self):
        other = SearchSpace("other", [Decision("z", (0, 1, 2))])
        with pytest.raises(ValueError, match="different search space"):
            CategoricalPolicy(other).load_state_dict(trained_controller().policy.state_dict())

    def test_wrong_shape_rejected(self):
        state = trained_controller().policy.state_dict()
        state["logits"][0] = np.zeros(2)  # "a" has three choices
        with pytest.raises(ValueError, match="different search space"):
            CategoricalPolicy(small_space()).load_state_dict(state)


class TestControllerState:
    def test_resume_continues_from_checkpoint(self):
        first = trained_controller(seed=0)
        resumed = ReinforceController(small_space(), learning_rate=0.4, seed=1)
        resumed.load_state_dict(first.state_dict())
        assert resumed.best_architecture() == first.best_architecture()
        assert resumed.entropy() == first.entropy()
        # The rng stream rides along: both draw, and learn, the same from here.
        for _ in range(5):
            drawn = [first.sample_many(4), resumed.sample_many(4)]
            assert [a for a, _ in drawn[0]] == [a for a, _ in drawn[1]]
            for controller, samples in zip((first, resumed), drawn):
                controller.update([(idx, float(arch["a"])) for arch, idx in samples])
        for mine, theirs in zip(first.policy.logits, resumed.policy.logits):
            np.testing.assert_array_equal(mine, theirs)

    @pytest.mark.parametrize("steps", [0, 3])
    def test_baseline_restored(self, steps):
        saved = trained_controller(steps=steps)
        resumed = ReinforceController(small_space())
        resumed.baseline.value = 123.0
        resumed.load_state_dict(saved.state_dict())
        assert resumed.baseline.value == saved.baseline.value
        assert (saved.baseline.value is None) == (steps == 0)

    def test_wrong_space_rejected(self):
        other = SearchSpace("other", [Decision("z", (0, 1, 2, 3))])
        controller = ReinforceController(small_space())
        with pytest.raises(ValueError, match="different search space"):
            controller.load_state_dict(ReinforceController(other).state_dict())

    def test_state_survives_a_checkpoint_snapshot(self, tmp_path):
        from repro.runtime import CheckpointStore

        saved = trained_controller()
        store = CheckpointStore(tmp_path)
        store.save(1, {"controller": saved.state_dict()})
        resumed = ReinforceController(small_space(), learning_rate=0.4, seed=5)
        resumed.load_state_dict(store.load(store.latest())["controller"])
        assert resumed.state_dict()["baseline_value"] == saved.baseline.value
        assert [a for a, _ in resumed.sample_many(6)] == [a for a, _ in saved.sample_many(6)]
