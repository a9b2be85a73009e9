"""Weight initializers with explicit random generators.

Every initializer takes a ``numpy.random.Generator`` so that searches,
super-network training, and the performance model are fully
reproducible from a single seed.

Parameters are float32 (``DTYPE``): the paper trains its supernets on
TPUs and nothing in its search depends on float64.  The draws are the
float64 ones an initializer always made, rounded once, so a seed draws
the same stream.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: the float dtype every parameter is built in
DTYPE = np.dtype(np.float32)


def glorot_uniform(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """Glorot/Xavier uniform initialization for dense weights."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(DTYPE)


def he_normal(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """He normal initialization, suited to ReLU-family activations."""
    fan_in, _ = _fans(shape)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(DTYPE)


def embedding_normal(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """Small-variance normal init used for embedding tables."""
    return rng.normal(0.0, 0.05, size=shape).astype(DTYPE)


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[:-1]))
    return fan_in, shape[-1]
