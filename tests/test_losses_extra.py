"""Extra loss-function edge cases."""

import numpy as np
import pytest

from repro.nn import Tensor, accuracy, bce_with_logits, binary_accuracy, mse, softmax_cross_entropy


class TestLossEdges:
    def test_bce_extreme_logits_finite(self):
        logits = Tensor(np.array([[500.0], [-500.0]]))
        loss = bce_with_logits(logits, np.array([[1.0], [0.0]]))
        assert np.isfinite(loss.item())

    def test_softmax_ce_large_logits_stable(self):
        logits = Tensor(np.array([[1000.0, 0.0, -1000.0]]), requires_grad=True)
        loss = softmax_cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.all(np.isfinite(logits.grad))

    def test_accuracy_perfect_and_zero(self):
        logits = Tensor(np.array([[5.0, 0.0], [0.0, 5.0]]))
        assert accuracy(logits, np.array([0, 1])) == 1.0
        assert accuracy(logits, np.array([1, 0])) == 0.0

    def test_binary_accuracy_threshold_at_zero(self):
        logits = Tensor(np.array([[0.1], [-0.1]]))
        assert binary_accuracy(logits, np.array([[1.0], [0.0]])) == 1.0

    def test_mse_zero_for_exact(self):
        pred = Tensor(np.array([[1.0], [2.0]]))
        assert mse(pred, np.array([[1.0], [2.0]])).item() == 0.0

    def test_softmax_ce_uniform_is_log_classes(self):
        logits = Tensor(np.zeros((4, 7)))
        loss = softmax_cross_entropy(logits, np.arange(4) % 7)
        assert loss.item() == pytest.approx(np.log(7))


class TestTargetShapes:
    """A target may broadcast up to the logits, never widen them: ``(N,)``
    labels against ``(N, 1)`` logits would average over N² pairs."""

    LOSSES = {"bce_with_logits": bce_with_logits, "binary_accuracy": binary_accuracy, "mse": mse}

    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_a_target_that_widens_the_logits_is_refused(self, name):
        logits = Tensor(np.linspace(-1.0, 1.0, 6).reshape(6, 1))
        with pytest.raises(ValueError, match=r"\(6,\).*\(6, 1\)"):
            self.LOSSES[name](logits, np.ones(6))

    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_a_target_of_the_logits_shape_is_accepted(self, name):
        logits = Tensor(np.linspace(-1.0, 1.0, 6).reshape(6, 1), requires_grad=True)
        targets = (np.arange(6) % 2).reshape(6, 1)
        value = self.LOSSES[name](logits, targets)
        if isinstance(value, Tensor):
            value.backward()
            assert logits.grad.shape == (6, 1)
        # the mean runs over N elements, not N² pairs
        expected = {
            "bce_with_logits": np.mean(
                np.log1p(np.exp(-np.abs(logits.data)))
                + np.maximum(logits.data, 0.0) - logits.data * targets
            ),
            "binary_accuracy": np.mean((logits.data > 0) == targets),
            "mse": np.mean((logits.data - targets) ** 2),
        }[name]
        assert float(getattr(value, "data", value)) == pytest.approx(expected, rel=1e-12)

    def test_a_target_that_broadcasts_up_is_accepted(self):
        logits = Tensor(np.zeros((4, 2)))
        assert mse(logits, np.array([1.0, 2.0])).item() == pytest.approx(2.5)
