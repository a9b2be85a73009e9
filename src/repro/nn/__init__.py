"""NumPy-based neural-network substrate (autograd, layers, optimizers)."""

from .tensor import Tensor, as_tensor, stack_mean
from .fused import ACT_KERNELS, dense_act, dense_chain, embedding_interaction
from .layers import (
    ACTIVATIONS,
    Dense,
    LayerNorm,
    LowRankDense,
    MLP,
    MaskedDense,
    MaskedEmbedding,
    Module,
    activation,
)
from .losses import accuracy, bce_with_logits, binary_accuracy, mse, softmax_cross_entropy
from .optim import Adam, Optimizer

__all__ = [
    "ACTIVATIONS",
    "ACT_KERNELS",
    "Adam",
    "Dense",
    "LayerNorm",
    "LowRankDense",
    "MLP",
    "MaskedDense",
    "MaskedEmbedding",
    "Module",
    "Optimizer",
    "Tensor",
    "accuracy",
    "activation",
    "as_tensor",
    "bce_with_logits",
    "binary_accuracy",
    "dense_act",
    "dense_chain",
    "embedding_interaction",
    "mse",
    "softmax_cross_entropy",
    "stack_mean",
]
