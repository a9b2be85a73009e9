"""Tests for LayerNorm and search-space freezing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import LayerNorm, Tensor
from repro.searchspace import Decision, SearchSpace, VitSpaceConfig, vit_search_space

from .test_searchspace import assert_full_assignment


class TestLayerNorm:
    def test_output_statistics(self):
        rng = np.random.default_rng(0)
        norm = LayerNorm(16)
        out = norm(Tensor(rng.normal(3.0, 5.0, size=(4, 16)).astype(np.float32)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_gain_and_bias_applied(self):
        norm = LayerNorm(4)
        norm.gain.data[:] = 2.0
        norm.bias.data[:] = 1.0
        out = norm(Tensor(np.random.default_rng(1).normal(size=(3, 4)).astype(np.float32)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 1.0, atol=1e-6)

    def test_gradient_flows_numerically(self):
        rng = np.random.default_rng(2)
        val = rng.normal(size=(2, 5))
        x = Tensor(val.copy(), requires_grad=True)
        norm = LayerNorm(5)
        for param in norm.parameters():  # the float64 oracle below
            param.data = param.data.astype(np.float64)
        weights = np.arange(10.0).reshape(2, 5)
        (norm(x) * Tensor(weights)).sum().backward()

        def fn(arr):
            mean = arr.mean(axis=-1, keepdims=True)
            centered = arr - mean
            var = (centered**2).mean(axis=-1, keepdims=True)
            return float(((centered / np.sqrt(var + 1e-5)) * weights).sum())

        eps = 1e-6
        numeric = np.zeros_like(val)
        for i in range(val.shape[0]):
            for j in range(val.shape[1]):
                hi, lo = val.copy(), val.copy()
                hi[i, j] += eps
                lo[i, j] -= eps
                numeric[i, j] = (fn(hi) - fn(lo)) / (2 * eps)
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-3, atol=1e-6)

    def test_masked_mode_keeps_inactive_zero(self):
        norm = LayerNorm(8)
        x = np.zeros((2, 8), dtype=np.float32)
        x[:, :4] = np.random.default_rng(3).normal(5.0, 2.0, size=(2, 4))
        out = norm(Tensor(x), active_width=4)
        np.testing.assert_allclose(out.data[:, 4:], 0.0)
        np.testing.assert_allclose(out.data[:, :4].mean(axis=-1), 0.0, atol=1e-6)

    def test_masked_stats_ignore_padding(self):
        """Stats over the active block match a dense LayerNorm of it."""
        rng = np.random.default_rng(4)
        active = rng.normal(2.0, 3.0, size=(3, 4)).astype(np.float32)
        padded = np.zeros((3, 8), dtype=np.float32)
        padded[:, :4] = active
        wide = LayerNorm(8)
        narrow = LayerNorm(4)
        out_wide = wide(Tensor(padded), active_width=4)
        out_narrow = narrow(Tensor(active))
        np.testing.assert_allclose(out_wide.data[:, :4], out_narrow.data, atol=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            LayerNorm(0)
        with pytest.raises(ValueError):
            LayerNorm(4)(Tensor(np.ones((1, 4))), active_width=5)

    def test_parameters_registered(self):
        assert len(LayerNorm(4).parameters()) == 2


class TestFrozenSpace:
    def test_freeze_pins_decision(self):
        space = SearchSpace("s", [Decision("a", (0, 1, 2)), Decision("b", ("x", "y"))])
        frozen = space.frozen({"b": "y"})
        assert frozen.decisions[1].choices == ("y",)
        assert frozen.cardinality() == 3
        rng = np.random.default_rng(0)
        assert all(frozen.sample(rng)["b"] == "y" for _ in range(10))

    def test_frozen_archs_valid_in_original_space(self):
        space = vit_search_space(VitSpaceConfig(num_tfm_blocks=1))
        frozen = space.frozen({"tfm0/seq_pooling": False})
        arch = frozen.sample(np.random.default_rng(1))
        assert_full_assignment(space, arch)  # still a full assignment of the original

    def test_illegal_value_rejected(self):
        space = SearchSpace("s", [Decision("a", (0, 1))])
        with pytest.raises(ValueError):
            space.frozen({"a": 7})

    def test_unknown_decision_rejected(self):
        space = SearchSpace("s", [Decision("a", (0, 1))])
        with pytest.raises(KeyError):
            space.frozen({"zzz": 0})

    def test_name_defaults(self):
        space = SearchSpace("s", [Decision("a", (0, 1))])
        assert space.frozen({"a": 1}).name == "s_frozen"
        assert space.frozen({"a": 1}, name="pinned").name == "pinned"
