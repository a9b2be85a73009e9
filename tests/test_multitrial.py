"""Tests for the multi-trial baselines and the NAS cost model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EvolutionConfig,
    EvolutionarySearch,
    NasCostModel,
    PerformanceObjective,
    RandomSearch,
    relu_reward,
)
from repro.searchspace import Decision, SearchSpace

from .test_searchspace import assert_full_assignment


def toy_space():
    return SearchSpace(
        "toy",
        [
            Decision("a", (0, 1, 2, 3)),
            Decision("b", (0, 1, 2, 3)),
            Decision("c", ("x", "y")),
        ],
    )


def toy_evaluate(arch):
    """Quality peaks at a=3, b=3, c='y'; cost grows with a."""
    quality = 0.2 * arch["a"] + 0.2 * arch["b"] + (0.3 if arch["c"] == "y" else 0.0)
    return quality, {"latency": 1.0 + 0.1 * arch["a"]}


def toy_reward():
    return relu_reward([PerformanceObjective("latency", 2.0, beta=-1.0)])


class TestRandomSearch:
    def test_finds_good_candidate(self):
        search = RandomSearch(toy_space(), toy_evaluate, toy_reward(), num_trials=200, seed=0)
        result = search.run()
        assert len(result.trials) == 200
        assert result.best.reward == max(t.reward for t in result.trials)
        assert result.best.reward > 1.2  # near the optimum of 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomSearch(toy_space(), toy_evaluate, toy_reward(), num_trials=0)

    def test_deterministic_given_seed(self):
        a = RandomSearch(toy_space(), toy_evaluate, toy_reward(), 30, seed=5).run()
        b = RandomSearch(toy_space(), toy_evaluate, toy_reward(), 30, seed=5).run()
        assert a.best.architecture == b.best.architecture


class TestEvolutionarySearch:
    def test_finds_optimum(self):
        config = EvolutionConfig(population_size=10, tournament_size=3, num_trials=150)
        search = EvolutionarySearch(toy_space(), toy_evaluate, toy_reward(), config, seed=0)
        result = search.run()
        best = result.best.architecture
        assert best["a"] == 3 and best["b"] == 3 and best["c"] == "y"

    def test_beats_random_on_average(self):
        """Evolution exploits structure that random sampling cannot."""
        budget = 60
        evo_best, rnd_best = [], []
        for seed in range(5):
            config = EvolutionConfig(population_size=10, tournament_size=3, num_trials=budget)
            evo = EvolutionarySearch(toy_space(), toy_evaluate, toy_reward(), config, seed=seed)
            rnd = RandomSearch(toy_space(), toy_evaluate, toy_reward(), budget, seed=seed)
            evo_best.append(evo.run().best.reward)
            rnd_best.append(rnd.run().best.reward)
        assert np.mean(evo_best) >= np.mean(rnd_best) - 1e-9

    def test_mutation_changes_exactly_requested_decisions(self):
        config = EvolutionConfig(population_size=2, tournament_size=1, num_trials=2)
        search = EvolutionarySearch(toy_space(), toy_evaluate, toy_reward(), config, seed=0)
        parent = toy_space().default_architecture()
        child = search.mutate(parent)
        differences = sum(parent[k] != child[k] for k in parent)
        assert differences == 1

    def test_population_ages_out(self):
        config = EvolutionConfig(population_size=5, tournament_size=2, num_trials=30)
        search = EvolutionarySearch(toy_space(), toy_evaluate, toy_reward(), config, seed=2)
        result = search.run()
        assert len(result.trials) == 30

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(population_size=1)
        with pytest.raises(ValueError):
            EvolutionConfig(population_size=5, tournament_size=6)
        with pytest.raises(ValueError):
            EvolutionConfig(population_size=10, num_trials=5)

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_mutation_always_valid(self, seed):
        config = EvolutionConfig(population_size=2, tournament_size=1, num_trials=2)
        search = EvolutionarySearch(toy_space(), toy_evaluate, toy_reward(), config, seed=seed)
        child = search.mutate(toy_space().sample(np.random.default_rng(seed)))
        assert_full_assignment(toy_space(), child)


class TestNasCostModel:
    def test_one_shot_multiple_matches_paper(self):
        model = NasCostModel(vanilla_training_hours=1000.0)
        assert model.one_shot_multiple() == pytest.approx(2.5)

    def test_multi_trial_scales_linearly(self):
        model = NasCostModel(vanilla_training_hours=100.0)
        assert model.multi_trial_hours(50) == pytest.approx(5000.0)

    def test_one_shot_advantage(self):
        model = NasCostModel(vanilla_training_hours=100.0)
        assert model.one_shot_advantage(250) == pytest.approx(100.0)

    def test_downstream_fraction_matches_paper_scale(self):
        """Paper: NAS hours < 0.03% of downstream serving/research hours."""
        model = NasCostModel(vanilla_training_hours=1000.0)
        fraction = model.downstream_fraction(downstream_hours=10_000_000.0)
        assert fraction < 0.0003

    def test_validation(self):
        with pytest.raises(ValueError):
            NasCostModel(vanilla_training_hours=0.0)
        model = NasCostModel(vanilla_training_hours=10.0)
        with pytest.raises(ValueError):
            model.multi_trial_hours(0)
        with pytest.raises(ValueError):
            model.downstream_fraction(0.0)
