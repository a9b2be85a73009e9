"""NumPy-based neural-network substrate (autograd, layers, optimizers)."""

from .tensor import Tensor, as_tensor, concatenate, stack_mean, trace_graph
from .fused import ACT_KERNELS, dense_act, masked_gather
from .tape import CompiledGraph, TapeCache, compile_graph
from .layers import (
    ACTIVATIONS,
    Dense,
    LayerNorm,
    LowRankDense,
    MLP,
    MaskedDense,
    MaskedEmbedding,
    Module,
    Sequential,
    activation,
)
from .losses import accuracy, bce_with_logits, binary_accuracy, mse, softmax_cross_entropy
from .optim import Adam, Optimizer, SGD
from .schedules import CosineSchedule, ScheduledOptimizer, StepDecaySchedule

__all__ = [
    "ACTIVATIONS",
    "ACT_KERNELS",
    "Adam",
    "CompiledGraph",
    "CosineSchedule",
    "Dense",
    "LayerNorm",
    "LowRankDense",
    "MLP",
    "MaskedDense",
    "MaskedEmbedding",
    "Module",
    "Optimizer",
    "SGD",
    "ScheduledOptimizer",
    "StepDecaySchedule",
    "Sequential",
    "TapeCache",
    "Tensor",
    "accuracy",
    "activation",
    "as_tensor",
    "bce_with_logits",
    "binary_accuracy",
    "compile_graph",
    "concatenate",
    "dense_act",
    "masked_gather",
    "mse",
    "softmax_cross_entropy",
    "stack_mean",
    "trace_graph",
]
