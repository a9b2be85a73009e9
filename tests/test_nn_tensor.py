"""Unit tests for the autograd engine: gradients checked numerically."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, as_tensor
from repro.nn.tensor import no_grad

from .test_nn_gradcheck import concatenate


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` w.r.t. array ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        grad_flat[i] = (hi - lo) / (2 * eps)
    return grad


def check_unary(op_name, data, **kwargs):
    x = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
    out = getattr(x, op_name)(**kwargs)
    out.sum().backward()

    def fn(arr):
        return float(getattr(Tensor(arr), op_name)(**kwargs).data.sum())

    expected = numerical_grad(fn, np.array(data, dtype=np.float64))
    np.testing.assert_allclose(x.grad, expected, rtol=1e-4, atol=1e-6)


class TestElementwiseGradients:
    def test_relu(self):
        check_unary("relu", [[-1.5, 0.3], [2.0, -0.1]])

    def test_squared_relu(self):
        check_unary("squared_relu", [[-1.5, 0.3], [2.0, -0.1]])

    def test_sigmoid(self):
        check_unary("sigmoid", [[-1.5, 0.3], [2.0, -0.1]])

    def test_swish(self):
        check_unary("swish", [[-1.5, 0.3], [2.0, -0.1]])

    def test_gelu(self):
        check_unary("gelu", [[-1.5, 0.3], [2.0, -0.1]])

    def test_tanh(self):
        check_unary("tanh", [[-1.5, 0.3], [2.0, -0.1]])

    def test_squared_relu_matches_definition(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        out = Tensor(x).squared_relu()
        np.testing.assert_allclose(out.data, np.maximum(x, 0) ** 2)


class TestArithmeticGradients:
    def test_add_broadcast(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(4,)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_mul_gradients(self):
        rng = np.random.default_rng(2)
        a_val = rng.normal(size=(2, 3))
        b_val = rng.normal(size=(2, 3))
        a, b = Tensor(a_val, requires_grad=True), Tensor(b_val, requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, b_val)
        np.testing.assert_allclose(b.grad, a_val)

    def test_pow_gradient(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        (x**3).sum().backward()
        np.testing.assert_allclose(x.grad, 3 * np.array([1.0, 2.0, 3.0]) ** 2)

    def test_matmul_gradients(self):
        rng = np.random.default_rng(4)
        a_val = rng.normal(size=(3, 4))
        b_val = rng.normal(size=(4, 5))
        a = Tensor(a_val, requires_grad=True)
        b = Tensor(b_val, requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b_val.T)
        np.testing.assert_allclose(b.grad, a_val.T @ np.ones((3, 5)))

    def test_matmul_batched(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)

    def test_sub_and_neg(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        (a - b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [-1.0, -1.0])


class TestReductionsAndShape:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4), requires_grad=True)
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (3, 1)
        out.backward(np.ones((3, 1)))
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_sum_axis_no_keepdims(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        x.sum(axis=0).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_mean(self):
        x = Tensor(np.ones((2, 5)), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 5), 0.1))

    def test_mean_axis(self):
        x = Tensor(np.ones((2, 5)), requires_grad=True)
        x.mean(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 5), 0.2))

    def test_reshape_roundtrip(self):
        x = Tensor(np.arange(6, dtype=np.float64), requires_grad=True)
        out = x.reshape(2, 3)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(6))

    def test_transpose(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
        out = x.transpose()
        assert out.shape == (3, 2)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_gather_rows_accumulates_duplicates(self):
        table = Tensor(np.arange(12, dtype=np.float64).reshape(4, 3), requires_grad=True)
        out = table.gather_rows(np.array([0, 0, 2]))
        out.sum().backward()
        expected = np.zeros((4, 3))
        expected[0] = 2.0
        expected[2] = 1.0
        np.testing.assert_allclose(table.grad, expected)

    def test_mask_blocks_gradient(self):
        x = Tensor(np.ones((2, 4)), requires_grad=True)
        mask = np.array([1.0, 1.0, 0.0, 0.0])
        x.mask(mask).sum().backward()
        np.testing.assert_allclose(x.grad, np.tile(mask, (2, 1)))

    def test_concatenate(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.ones((2, 2)))


class TestBackwardMechanics:
    def test_diamond_graph_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0
        z = x * 4.0
        (y + z).sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_reused_node_multiple_paths(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x  # d/dx = 2x = 6
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            x.backward()

    def test_backward_without_grad_tracking_raises(self):
        x = Tensor(np.ones(1))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_as_tensor_passthrough(self):
        x = Tensor(np.ones(2))
        assert as_tensor(x) is x
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)


class TestPropertyBased:
    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=8),
        st.lists(st.floats(-5, 5), min_size=1, max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_add_commutes(self, xs, ys):
        n = min(len(xs), len(ys))
        a = Tensor(np.array(xs[:n]))
        b = Tensor(np.array(ys[:n]))
        np.testing.assert_allclose((a + b).data, (b + a).data)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_relu_idempotent(self, xs):
        x = Tensor(np.array(xs))
        once = x.relu().data
        twice = x.relu().relu().data
        np.testing.assert_allclose(once, twice)

    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_mean_between_min_and_max(self, xs):
        arr = np.array(xs)
        m = Tensor(arr).mean().item()
        assert arr.min() - 1e-9 <= m <= arr.max() + 1e-9

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_matmul_shape(self, n, k, m):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(n, k)))
        b = Tensor(rng.normal(size=(k, m)))
        assert (a @ b).shape == (n, m)


class TestStackMean:
    def test_mean_of_tensors(self):
        from repro.nn import stack_mean

        tensors = [Tensor(np.full(3, float(i)), requires_grad=True) for i in range(4)]
        out = stack_mean(tensors)
        np.testing.assert_allclose(out.data, np.full(3, 1.5))
        out.sum().backward()
        for t in tensors:
            np.testing.assert_allclose(t.grad, np.full(3, 0.25))

    def test_empty_rejected(self):
        from repro.nn import stack_mean

        with pytest.raises(ValueError):
            stack_mean([])


class TestNoGrad:
    """Forward-only passes build no graph (``no_grad``)."""

    def test_ops_record_no_parents_and_no_backward(self):
        w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        with no_grad():
            out = (w * 2.0).relu().sum()
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        assert out.item() == (w * 2.0).relu().sum().item()

    def test_parameters_keep_requires_grad(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            made_inside = Tensor(np.ones(2), requires_grad=True)
            w * 3.0
        assert w.requires_grad and made_inside.requires_grad
        (w * made_inside).sum().backward()  # tracked again after the block
        np.testing.assert_array_equal(w.grad, [1.0, 1.0])

    def test_state_is_restored_on_exit_and_on_error(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                with no_grad():
                    pass
                assert not (w * 1.0).requires_grad  # the inner exit restores "off"
                raise RuntimeError("boom")
        assert (w * 1.0).requires_grad

    def test_other_threads_keep_tracking(self):
        """A tracked ``backward`` on another thread, while this thread is
        inside an untracked region, still fills ``.grad``."""
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        inside, done = threading.Event(), threading.Event()

        def train():
            inside.wait(10)
            (w * w).sum().backward()
            done.set()

        worker = threading.Thread(target=train)
        worker.start()
        with no_grad():
            inside.set()
            assert done.wait(10)
            untracked = w * w
        worker.join()
        np.testing.assert_array_equal(w.grad, [2.0, 4.0])
        assert not untracked.requires_grad
