"""Tests for the categorical REINFORCE controller."""

import numpy as np
import pytest
from hypothesis import example, given, settings
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


class TestMalformedIndexVectors:
    """An index vector that does not fit the space is refused, naming the
    decision, before any logit moves."""

    OUT_OF_RANGE = r"index {} is out of range for decision 'b' \(2 choices\)"
    CASES = [
        pytest.param([2], "no entry for decision 'b'", id="short"),
        pytest.param([0, -1], OUT_OF_RANGE.format(-1), id="negative"),
        pytest.param([0, 2], OUT_OF_RANGE.format(2), id="past_last_choice"),
        pytest.param([2, 1, 0], "length 3 runs past decision 'b'", id="long"),
    ]

    @pytest.mark.parametrize("indices, message", CASES)
    def test_reinforce_update_refuses(self, indices, message):
        policy = CategoricalPolicy(small_space())
        with pytest.raises(ValueError, match=message):
            policy.reinforce_update([(np.array([1, 0]), 1.0), (np.array(indices), 1.0)], 0.5)
        for logit in policy.logits:
            np.testing.assert_array_equal(logit, 0.0)

    @pytest.mark.parametrize("indices, message", CASES)
    def test_log_prob_refuses(self, indices, message):
        with pytest.raises(ValueError, match=message):
            CategoricalPolicy(small_space()).log_prob(indices)

    def test_controller_update_refuses(self):
        controller = ReinforceController(small_space())
        with pytest.raises(ValueError, match="no entry for decision 'b'"):
            controller.update([(np.array([0]), 1.0)])
        assert controller.baseline.value is None


class PerDecisionReference:
    """The policy as one logit vector per decision, looped decision by
    decision: the expressions the per-count tables must reproduce bit for
    bit (DESIGN.md §10, "policy tables")."""

    def __init__(self, counts):
        self.logits = [np.zeros(count) for count in counts]

    @staticmethod
    def softmax(logits):
        shifted = logits - logits.max()
        exp = np.exp(shifted)
        return exp / exp.sum()

    def probabilities(self):
        return [self.softmax(logit) for logit in self.logits]

    def sample_batch(self, rng, count):
        probs = self.probabilities()
        uniforms = rng.random((count, len(probs)))
        columns = []
        for d, p in enumerate(probs):
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            columns.append(np.searchsorted(cdf, uniforms[:, d], side="right"))
        return np.stack(columns, axis=1).astype(np.int64)

    def log_prob(self, indices):
        total = 0.0
        for probs, idx in zip(self.probabilities(), indices):
            total += float(np.log(probs[int(idx)] + 1e-12))
        return total

    def entropy(self):
        total = 0.0
        for probs in self.probabilities():
            total += float(-(probs * np.log(probs + 1e-12)).sum())
        return total

    def reinforce_update(self, samples, learning_rate, entropy_coef):
        probs = self.probabilities()
        grads = [np.zeros_like(logit) for logit in self.logits]
        for indices, advantage in samples:
            for d, idx in enumerate(indices):
                onehot = np.zeros_like(grads[d])
                onehot[int(idx)] = 1.0
                grads[d] += advantage * (onehot - probs[d])
        for d, (logit, grad) in enumerate(zip(self.logits, grads)):
            update = (learning_rate / len(samples)) * grad
            if entropy_coef > 0:
                p = probs[d]
                log_p = np.log(p + 1e-12)
                entropy = float(-(p * log_p).sum())
                update += learning_rate * entropy_coef * (-p * (log_p + entropy))
            logit += update


class TestTablesMatchThePerDecisionLoop:
    @given(
        counts=st.lists(st.integers(1, 15), min_size=1, max_size=40),
        entropy_coef=st.sampled_from([0.0, 0.15]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(counts=[1, 9, 15, 4, 4, 4, 1, 12, 9, 2, 8, 7], entropy_coef=0.15, seed=3)
    @settings(max_examples=40, deadline=None)
    def test_draws_updates_and_entropy_are_bit_identical(self, counts, entropy_coef, seed):
        space = SearchSpace("s", [Decision(f"d{i}", tuple(range(c))) for i, c in enumerate(counts)])
        policy, reference = CategoricalPolicy(space), PerDecisionReference(counts)
        rng = np.random.default_rng(seed)
        mine, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)

        def assert_same_policy():
            for a, b in zip(policy.logits, reference.logits):
                assert np.array_equal(a, b)
            for a, b in zip(policy.probabilities(), reference.probabilities()):
                assert np.array_equal(a, b)
            assert policy.entropy() == reference.entropy()

        for step in range(24):
            if step == 8:  # a write through a row view reaches the next draw
                d = int(rng.integers(len(counts)))
                policy.logits[d][:] = reference.logits[d][:] = rng.normal(size=counts[d]) * 4
            if step == 16:  # ...and so does a restored state
                saved = [rng.normal(size=c) * 4 for c in counts]
                policy.load_state_dict({"logits": [logit.copy() for logit in saved]})
                reference.logits = saved
            count = int(rng.integers(1, 7))
            drawn = policy.sample_batch(mine, count)
            expected = reference.sample_batch(theirs, count)
            assert np.array_equal(np.stack([indices for _, indices in drawn]), expected)
            assert policy.log_prob(expected[0]) == reference.log_prob(expected[0])
            assert_same_policy()
            samples = [(row, float(a)) for row, a in zip(expected, rng.normal(size=count) * 3)]
            policy.reinforce_update(samples, 0.4, entropy_coef)
            reference.reinforce_update(samples, 0.4, entropy_coef)
            assert_same_policy()
        assert policy.most_probable_architecture() == space.architecture_from_indices(
            [int(np.argmax(logit)) for logit in reference.logits]
        )


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
