"""Tests for the mixture super-network and the DARTS baseline."""

import numpy as np
import pytest

from repro.core import DartsConfig, DartsSearch
from repro.data import TwoStreamPipeline, VisionTaskConfig, VisionTeacher
from repro.nn import Tensor
from repro.supernet import (
    MixtureSuperNetwork,
    MixtureSupernetConfig,
    mixture_search_space,
)

from .test_searchspace import assert_full_assignment


def make_net(num_layers=2):
    return MixtureSuperNetwork(
        MixtureSupernetConfig(num_layers=num_layers, num_features=16, num_classes=4)
    )


def make_teacher(seed=0):
    return VisionTeacher(VisionTaskConfig(batch_size=32, seed=seed))


def uniform_probs(net):
    space = mixture_search_space(net.config)
    return {
        d.name: Tensor(np.full(d.num_choices, 1.0 / d.num_choices))
        for d in space.decisions
    }


class TestMixtureSupernet:
    def test_discrete_forward_shape(self):
        net = make_net()
        space = mixture_search_space(net.config)
        batch = make_teacher().next_batch()
        logits = net(space.default_architecture(), batch.inputs)
        assert logits.shape == (32, 4)

    def test_mixture_forward_shape(self):
        net = make_net()
        batch = make_teacher().next_batch()
        logits = net.forward_mixture(uniform_probs(net), batch.inputs)
        assert logits.shape == (32, 4)

    def test_onehot_mixture_matches_discrete(self):
        """A one-hot mixture reduces exactly to the discrete candidate."""
        net = make_net()
        space = mixture_search_space(net.config)
        arch = space.default_architecture().replaced(
            **{"layer0/width": 16, "layer0/activation": "swish"}
        )
        probs = {}
        for decision in space.decisions:
            onehot = np.zeros(decision.num_choices)
            onehot[decision.index_of(arch[decision.name])] = 1.0
            probs[decision.name] = Tensor(onehot)
        batch = make_teacher().next_batch()
        np.testing.assert_allclose(
            net.forward_mixture(probs, batch.inputs).data,
            net(arch, batch.inputs).data,
            atol=1e-10,
        )

    def test_mixture_gradients_reach_probabilities(self):
        net = make_net()
        space = mixture_search_space(net.config)
        alphas = {
            d.name: Tensor(np.zeros(d.num_choices), requires_grad=True)
            for d in space.decisions
        }
        probs = {name: alpha.softmax() for name, alpha in alphas.items()}
        batch = make_teacher().next_batch()
        net.loss_mixture(probs, batch.inputs, batch.labels).backward()
        for alpha in alphas.values():
            assert alpha.grad is not None
            assert np.any(alpha.grad != 0)

    def test_branch_count(self):
        net = make_net(num_layers=3)
        assert net.mixture_branch_count == 3 * 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MixtureSupernetConfig(num_layers=0)
        with pytest.raises(ValueError):
            MixtureSupernetConfig(width_choices=())
        with pytest.raises(ValueError):
            MixtureSupernetConfig(width_choices=(0, 8))

    def test_search_space_matches_config(self):
        net = make_net(num_layers=2)
        space = mixture_search_space(net.config)
        assert len(space) == 4
        assert space.cardinality() == (4 * 4) ** 2


class TestDartsSearch:
    def run_search(self, steps=120, seed=0):
        net = make_net()
        teacher = make_teacher(seed)
        pipeline = TwoStreamPipeline(teacher.next_batch, train_batches=30, valid_batches=15)
        search = DartsSearch(net, pipeline, DartsConfig(steps=steps, warmup_steps=15))
        return net, teacher, search, search.run()

    def test_training_losses_decrease(self):
        _, _, _, result = self.run_search()
        assert np.mean(result.train_losses[-10:]) < np.mean(result.train_losses[:10])

    def test_derived_architecture_valid_and_good(self):
        net, teacher, search, result = self.run_search()
        assert_full_assignment(search.space, result.final_architecture)
        batch = teacher.next_batch()
        quality = net.quality(result.final_architecture, batch.inputs, batch.labels)
        assert quality > 0.45  # well above 4-class chance

    def test_requires_two_datasets(self):
        """The bilevel structure consumes both splits (unlike single-step)."""
        net = make_net()
        teacher = make_teacher()
        pipeline = TwoStreamPipeline(teacher.next_batch, train_batches=5, valid_batches=5)
        DartsSearch(net, pipeline, DartsConfig(steps=30, warmup_steps=5)).run()
        assert pipeline.train_reuses >= 1
        assert pipeline.valid_reuses >= 1

    def test_every_step_evaluates_all_branches(self):
        """The taxonomy's cost claim: branch count per step > 1."""
        _, _, _, result = self.run_search(steps=5)
        assert result.branch_evaluations_per_step == 2 * 2 * 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DartsConfig(steps=0)
        with pytest.raises(ValueError):
            DartsConfig(warmup_steps=-1)

    def test_alphas_move_from_uniform(self):
        net, _, search, _ = self.run_search()
        moved = any(np.ptp(alpha.data) > 1e-3 for alpha in search.alphas.values())
        assert moved
