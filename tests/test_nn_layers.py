"""Tests for layers: masking semantics are the weight-sharing contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Adam,
    Dense,
    LowRankDense,
    MLP,
    MaskedDense,
    MaskedEmbedding,
    Module,
    Tensor,
    activation,
    bce_with_logits,
    mse,
    softmax_cross_entropy,
)


def rng():
    return np.random.default_rng(1234)


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3, rng())
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_weight_and_bias(self):
        layer = Dense(4, 3, rng())
        assert layer.bias.shape == (3,)
        assert len(layer.parameters()) == 2

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Dense(0, 3, rng())

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            Dense(4, 3, rng(), activation_name="sine")

    def test_trains_toward_target(self):
        layer = Dense(2, 1, rng(), activation_name="linear")
        opt = Adam(layer.parameters(), lr=0.1)
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        y = x.sum(axis=1, keepdims=True)
        losses = []
        for _ in range(200):
            opt.zero_grad()
            loss = mse(layer(Tensor(x)), y)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < 0.01 < losses[0] or losses[-1] < losses[0] * 0.1


class TestMaskedDense:
    def test_inactive_outputs_are_zero(self):
        layer = MaskedDense(8, 6, rng())
        out = layer(Tensor(np.ones((3, 8))), active_in=4, active_out=2)
        np.testing.assert_allclose(out.data[:, 2:], 0.0)

    def test_small_width_matches_submatrix(self):
        layer = MaskedDense(8, 6, rng(), activation_name="linear")
        layer.bias.data[:] = np.arange(6.0)
        x = np.zeros((2, 8))
        x[:, :4] = np.random.default_rng(7).normal(size=(2, 4))
        out = layer(Tensor(x), active_in=4, active_out=3)
        expected = x[:, :4] @ layer.weight.data[:4, :3] + layer.bias.data[:3]
        np.testing.assert_allclose(out.data[:, :3], expected)

    def test_gradient_only_on_active_block(self):
        layer = MaskedDense(8, 6, rng(), activation_name="linear")
        out = layer(Tensor(np.ones((2, 8))), active_in=4, active_out=2)
        out.sum().backward()
        grad = layer.weight.grad
        assert np.all(grad[4:, :] == 0)
        assert np.all(grad[:, 2:] == 0)
        assert np.any(grad[:4, :2] != 0)

    def test_weight_sharing_across_candidates(self):
        """Two candidate widths must read the same underlying weights."""
        layer = MaskedDense(8, 6, rng(), activation_name="linear")
        x = np.zeros((1, 8))
        x[:, :2] = 1.0
        narrow = layer(Tensor(x), active_in=2, active_out=2)
        wide = layer(Tensor(x), active_in=2, active_out=6)
        np.testing.assert_allclose(narrow.data[:, :2], wide.data[:, :2])

    def test_active_bounds_validated(self):
        layer = MaskedDense(8, 6, rng())
        with pytest.raises(ValueError):
            layer(Tensor(np.ones((1, 8))), active_in=9)
        with pytest.raises(ValueError):
            layer(Tensor(np.ones((1, 8))), active_out=0)

    @given(st.integers(1, 8), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_any_active_width_is_valid(self, ain, aout):
        layer = MaskedDense(8, 6, rng(), activation_name="linear")
        out = layer(Tensor(np.ones((2, 8))), active_in=ain, active_out=aout)
        assert out.shape == (2, 6)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[:, aout:], 0.0)


class TestLowRankDense:
    def test_rank_masking_shrinks_capacity(self):
        layer = LowRankDense(6, 6, 4, rng(), activation_name="linear")
        x = Tensor(np.random.default_rng(3).normal(size=(2, 6)))
        full = layer(x, active_rank=4)
        rank1 = layer(x, active_rank=1)
        assert not np.allclose(full.data, rank1.data)

    def test_rank_one_matches_outer_product(self):
        layer = LowRankDense(4, 3, 2, rng(), activation_name="linear")
        layer.bias.data[:] = 0.0
        x = np.random.default_rng(5).normal(size=(2, 4))
        out = layer(Tensor(x), active_rank=1)
        expected = (x @ layer.factor_u.data[:, :1]) @ layer.factor_v.data[:1, :]
        np.testing.assert_allclose(out.data, expected)

    def test_invalid_rank(self):
        layer = LowRankDense(4, 3, 2, rng())
        with pytest.raises(ValueError):
            layer(Tensor(np.ones((1, 4))), active_rank=3)

    def test_gradient_respects_rank_mask(self):
        layer = LowRankDense(4, 3, 2, rng(), activation_name="linear")
        out = layer(Tensor(np.ones((2, 4))), active_rank=1)
        out.sum().backward()
        assert np.all(layer.factor_u.grad[:, 1:] == 0)
        assert np.all(layer.factor_v.grad[1:, :] == 0)


class TestMaskedEmbedding:
    def test_lookup_shape(self):
        emb = MaskedEmbedding(10, 6, rng())
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 6)

    def test_width_masking(self):
        emb = MaskedEmbedding(10, 6, rng())
        out = emb(np.array([0, 1]), active_width=3)
        np.testing.assert_allclose(out.data[:, 3:], 0.0)
        np.testing.assert_allclose(out.data[:, :3], emb.table.data[[0, 1], :3])

    def test_shared_prefix_across_widths(self):
        emb = MaskedEmbedding(10, 6, rng())
        narrow = emb(np.array([5]), active_width=2)
        wide = emb(np.array([5]), active_width=6)
        np.testing.assert_allclose(narrow.data[:, :2], wide.data[:, :2])

    def test_out_of_range_indices_wrap(self):
        emb = MaskedEmbedding(4, 3, rng())
        out = emb(np.array([7]))  # 7 % 4 == 3
        np.testing.assert_allclose(out.data[0], emb.table.data[3])

    def test_gradient_hits_only_looked_up_rows(self):
        emb = MaskedEmbedding(10, 4, rng())
        out = emb(np.array([2, 2, 7]), active_width=2)
        out.sum().backward()
        grad = emb.table.grad
        assert np.all(grad[[0, 1, 3, 4, 5, 6, 8, 9]] == 0)
        assert np.all(grad[:, 2:] == 0)
        np.testing.assert_allclose(grad[2, :2], 2.0)

    def test_invalid_width(self):
        emb = MaskedEmbedding(4, 3, rng())
        with pytest.raises(ValueError):
            emb(np.array([0]), active_width=4)


class TestMLP:
    def test_mlp_shapes(self):
        net = MLP(5, [16, 8], 2, rng())
        out = net(Tensor(np.ones((3, 5))))
        assert out.shape == (3, 2)

    def test_parameter_collection_dedupes(self):
        net = MLP(3, [4], 1, rng())
        params = net.parameters()
        assert len(params) == 4  # two layers x (weight, bias)
        assert len({id(p) for p in params}) == len(params)

    def test_mlp_fits_nonlinear_function(self):
        gen = np.random.default_rng(0)
        x = gen.uniform(-1, 1, size=(256, 2))
        y = (np.sin(3 * x[:, 0]) * x[:, 1]).reshape(-1, 1)
        net = MLP(2, [32, 32], 1, rng())
        opt = Adam(net.parameters(), lr=0.01)
        first = None
        for step in range(300):
            opt.zero_grad()
            loss = mse(net(Tensor(x)), y)
            loss.backward()
            opt.step()
            if first is None:
                first = loss.item()
        assert loss.item() < first * 0.2


class TestLosses:
    def test_bce_perfect_prediction_small(self):
        logits = Tensor(np.array([[10.0], [-10.0]]))
        loss = bce_with_logits(logits, np.array([[1.0], [0.0]]))
        assert loss.item() < 0.01

    def test_bce_wrong_prediction_large(self):
        logits = Tensor(np.array([[10.0], [-10.0]]))
        loss = bce_with_logits(logits, np.array([[0.0], [1.0]]))
        assert loss.item() > 2.0

    def test_softmax_ce_matches_manual(self):
        logits_val = np.array([[2.0, 1.0, 0.1]])
        labels = np.array([0])
        loss = softmax_cross_entropy(Tensor(logits_val), labels)
        probs = np.exp(logits_val) / np.exp(logits_val).sum()
        np.testing.assert_allclose(loss.item(), -np.log(probs[0, 0]), rtol=1e-6)

    def test_softmax_ce_gradient_direction(self):
        logits = Tensor(np.array([[0.0, 0.0]]), requires_grad=True)
        softmax_cross_entropy(logits, np.array([1])).backward()
        assert logits.grad[0, 0] > 0  # wrong class pushed down
        assert logits.grad[0, 1] < 0  # right class pushed up

    def test_activation_lookup(self):
        assert activation("relu")(Tensor(np.array([-1.0, 2.0]))).data.tolist() == [0.0, 2.0]


class TestOptimizers:
    def test_adam_converges_on_quadratic(self):
        w = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([w], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            (w * w).sum().backward()
            opt.step()
        assert np.all(np.abs(w.data) < 0.05)

    def test_lr_must_be_positive(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)


class TestModuleState:
    """Parameters persist as ``state_dict`` copies keyed by traversal index."""

    def test_round_trip_reproduces_outputs(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        net = MLP(5, [8, 8], 2, np.random.default_rng(1))
        fresh = MLP(5, [8, 8], 2, np.random.default_rng(2))
        assert not np.array_equal(net(x).data, fresh(x).data)
        fresh.load_state_dict(net.state_dict())
        np.testing.assert_array_equal(net(x).data, fresh(x).data)

    def test_state_is_a_copy_both_ways(self):
        net = MLP(3, [4], 1, rng())
        state = net.state_dict()
        kept = [p.data.copy() for p in net.parameters()]
        state["param_0"][...] = 7.0
        fresh = MLP(3, [4], 1, np.random.default_rng(9))
        fresh.load_state_dict(net.state_dict())
        fresh.parameters()[1].data[...] = -7.0
        for param, value in zip(net.parameters(), kept):
            np.testing.assert_array_equal(param.data, value)

    def test_parameters_held_in_a_dict_are_included(self):
        class Tables(Module):
            def __init__(self, seed):
                gen = np.random.default_rng(seed)
                self.tables = {
                    name: Tensor(gen.normal(size=(3, 2)), requires_grad=True)
                    for name in ("small", "large")
                }

        saved, fresh = Tables(0), Tables(1)
        assert list(saved.state_dict()) == ["param_0", "param_1"]
        fresh.load_state_dict(saved.state_dict())
        for name in ("small", "large"):
            np.testing.assert_array_equal(fresh.tables[name].data, saved.tables[name].data)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="state has 4 parameters, module has 6"):
            MLP(3, [4, 4], 1, rng()).load_state_dict(MLP(3, [4], 1, rng()).state_dict())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different architecture"):
            MLP(3, [5], 1, rng()).load_state_dict(MLP(3, [4], 1, rng()).state_dict())

    def test_missing_key_rejected(self):
        state = MLP(3, [4], 1, rng()).state_dict()
        state["weights"] = state.pop("param_2")
        with pytest.raises(ValueError, match="missing 'param_2'"):
            MLP(3, [4], 1, rng()).load_state_dict(state)


def adam(params):
    return Adam(params, lr=0.05)


class TestOptimizerState:
    """What a resumed search needs of its optimizer: the same next steps."""

    @staticmethod
    def descend(optimizer, steps):
        # The last parameter never receives a gradient: its slot stays empty.
        live = optimizer.params[:-1]
        for step in range(steps):
            optimizer.zero_grad()
            for i, param in enumerate(live):
                param.grad = np.sin(param.data + step) * (i + 1)
            optimizer.step()

    @staticmethod
    def params(seed):
        gen = np.random.default_rng(seed)
        return [Tensor(gen.normal(size=shape), requires_grad=True) for shape in ((3,), (2, 2), (1,))]

    def test_resumed_optimizer_continues_identically(self):
        original = adam(self.params(0))
        self.descend(original, 5)
        resumed = adam(self.params(1))
        for mine, theirs in zip(resumed.params, original.params):
            mine.data[...] = theirs.data
        resumed.load_state_dict(original.state_dict())
        self.descend(original, 5)
        self.descend(resumed, 5)
        for mine, theirs in zip(resumed.params, original.params):
            np.testing.assert_array_equal(mine.data, theirs.data)

    def test_state_is_aligned_to_the_parameter_list(self):
        optimizer = adam(self.params(0))
        self.descend(optimizer, 2)
        state = optimizer.state_dict()
        slots = {key: value for key, value in state.items() if isinstance(value, list)}
        assert sorted(slots) == ["m", "v"]
        # One moment per live parameter.
        for slot in slots.values():
            assert [None if s is None else s.shape for s in slot] == [(3,), (2, 2), None]

    def test_slot_count_mismatch_rejected(self):
        state = adam(self.params(0)).state_dict()
        with pytest.raises(ValueError, match="m: state has 3 slots for 2 parameters"):
            adam(self.params(0)[:2]).load_state_dict(state)

    def test_slot_shape_mismatch_rejected(self):
        optimizer = adam(self.params(0))
        self.descend(optimizer, 1)
        state = optimizer.state_dict()
        state["v"][1] = np.zeros(4)
        with pytest.raises(ValueError, match=r"v: slot shape \(4,\)"):
            adam(self.params(0)).load_state_dict(state)
