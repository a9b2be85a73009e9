"""Tests for weight initializers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import initializers


def rng(seed=0):
    return np.random.default_rng(seed)


class TestGlorotUniform:
    def test_bounds(self):
        w = initializers.glorot_uniform(rng(), (64, 32))
        limit = np.sqrt(6.0 / (64 + 32))
        assert np.all(np.abs(w) <= limit)

    def test_shape(self):
        assert initializers.glorot_uniform(rng(), (3, 5)).shape == (3, 5)

    def test_deterministic_given_seed(self):
        a = initializers.glorot_uniform(rng(7), (4, 4))
        b = initializers.glorot_uniform(rng(7), (4, 4))
        np.testing.assert_array_equal(a, b)

    def test_vector_shape(self):
        w = initializers.glorot_uniform(rng(), (16,))
        limit = np.sqrt(6.0 / 32)
        assert np.all(np.abs(w) <= limit)


class TestHeNormal:
    def test_variance_scales_with_fan_in(self):
        w = initializers.he_normal(rng(), (1000, 50))
        assert w.std() == pytest.approx(np.sqrt(2.0 / 1000), rel=0.15)

    def test_zero_mean(self):
        w = initializers.he_normal(rng(), (2000, 10))
        assert abs(w.mean()) < 0.01


class TestEmbeddingNormal:
    def test_small_variance(self):
        w = initializers.embedding_normal(rng(), (5000, 8))
        assert w.std() == pytest.approx(0.05, rel=0.1)


class TestFans:
    @given(st.integers(1, 64), st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_2d_fans(self, nin, nout):
        assert initializers._fans((nin, nout)) == (nin, nout)

    def test_1d_fans(self):
        assert initializers._fans((7,)) == (7, 7)

    def test_3d_fans(self):
        fan_in, fan_out = initializers._fans((3, 4, 5))
        assert fan_in == 12 and fan_out == 5
