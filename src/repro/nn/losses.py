"""Loss functions used across the reproduction.

* Binary cross-entropy with logits — DLRM click-through prediction.
* Softmax cross-entropy — vision classification proxies.
* Mean-squared error — the MLP performance model regression.

Each loss is a single fused graph node: the forward computes the scalar
directly from the logits' data and the backward applies the closed-form
gradient, so the loss adds one node to the graph instead of a chain of
elementwise ops.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def _targets_for(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``targets`` in ``logits``' dtype, refused if it would widen
    ``logits``' shape.

    A target may broadcast up to the logits (a scalar, a row), never
    the other way: ``(N,)`` labels against ``(N, 1)`` logits would
    broadcast to ``(N, N)`` and average over every pair.
    """
    shape = logits.shape
    targets = np.asarray(targets, dtype=logits.dtype)
    try:
        widened = np.broadcast_shapes(shape, targets.shape) != shape
    except ValueError:
        widened = True
    if widened:
        raise ValueError(
            f"targets of shape {targets.shape} do not fit logits of shape {shape}"
        )
    return targets


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Numerically-stable binary cross entropy on raw logits.

    Uses ``max(x, 0) - x*y + log(1 + exp(-|x|))``, which is exact for
    arbitrarily large logits.  (A previous implementation went through
    ``sigmoid`` + ``log(p + 1e-9)``, which clamps the loss at
    ``-log(1e-9)`` and zeroes the gradient once logits saturate the
    sigmoid — precisely the regime where a miscalibrated head most
    needs gradient signal.)

    The gradient is the classic ``(sigmoid(x) - y) / n``.
    """
    targets = _targets_for(logits.data, targets)
    inv = 1.0 / max(1, logits.data.size)

    def compute() -> np.ndarray:
        x = logits.data
        elem = np.maximum(x, 0.0) - x * targets + np.log1p(np.exp(-np.abs(x)))
        return np.asarray(elem.mean())

    def backward(grad: np.ndarray) -> None:
        x = logits.data
        sig = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        logits._accumulate((sig - targets) * (np.asarray(grad) * inv))

    return Tensor(compute(), parents=(logits,), backward=backward)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross entropy of integer ``labels`` against ``logits``.

    ``logits`` has shape ``(batch, classes)``; the log-sum-exp is
    stabilized by subtracting the rowwise max.  The gradient is
    ``(softmax - onehot) / batch``.
    """
    saved: dict = {}

    def compute() -> np.ndarray:
        x = logits.data
        idx = np.asarray(labels, dtype=np.int64)
        shift = x.max(axis=1, keepdims=True)
        shifted = np.clip(x - shift, -700.0, 700.0)
        exp = np.exp(shifted)
        total = exp.sum(axis=1, keepdims=True)
        saved["probs"] = exp / total
        saved["idx"] = idx
        rows = np.arange(idx.shape[0])
        picked = shifted[rows, idx] - np.log(total[rows, 0])
        return np.asarray(-picked.mean())

    def backward(grad: np.ndarray) -> None:
        probs, idx = saved["probs"], saved["idx"]
        scale = np.asarray(grad) / idx.shape[0]
        d = probs * scale
        d[np.arange(idx.shape[0]), idx] -= scale
        logits._accumulate(d)

    return Tensor(compute(), parents=(logits,), backward=backward)


def mse(predictions: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error against constant targets."""
    targets = _targets_for(predictions.data, targets)
    inv = 1.0 / max(1, predictions.data.size)
    saved: dict = {}

    def compute() -> np.ndarray:
        saved["diff"] = diff = predictions.data - targets
        return np.asarray((diff * diff).mean())

    def backward(grad: np.ndarray) -> None:
        predictions._accumulate((np.asarray(grad) * inv) * saved["diff"] * 2.0)

    return Tensor(compute(), parents=(predictions,), backward=backward)


def accuracy(logits: Tensor, labels: np.ndarray) -> float:
    """Top-1 accuracy for classification logits."""
    predicted = logits.data.argmax(axis=1)
    return float((predicted == np.asarray(labels)).mean())


def binary_accuracy(logits: Tensor, targets: np.ndarray) -> float:
    """Accuracy of thresholded sigmoid predictions."""
    targets = _targets_for(logits.data, targets)
    predicted = (logits.data > 0.0).astype(targets.dtype)
    return float((predicted == targets).mean())
