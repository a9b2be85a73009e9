"""Surrogate super-network: search with an analytical quality model.

At hyperscale the paper's quality signal comes from forward passes of a
trained super-network on production traffic.  The benchmark harness
replays those searches on CPU with a calibrated analytical quality
surrogate instead (see :mod:`repro.quality`); this adapter exposes a
quality function through the super-network protocol the search
algorithms expect, with a no-op weight-training path.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from ..nn import Tensor
from ..nn.initializers import DTYPE
from ..searchspace.base import Architecture

QualityFn = Callable[[Architecture], float]


class SurrogateSuperNetwork:
    """Adapts ``arch -> quality`` functions to the SuperNetwork protocol.

    Optionally adds observation noise so the RL controller faces the
    same stochastic quality estimates it would see from minibatch
    evaluation of a real super-network.
    """

    def __init__(
        self,
        quality_fn: QualityFn,
        noise_sigma: float = 0.0,
        seed: int = 0,
    ):
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        self._quality_fn = quality_fn
        self._noise_sigma = noise_sigma
        self._rng = np.random.default_rng(seed)
        # One dummy parameter so optimizers have something to hold.
        self._dummy = Tensor(np.zeros(1, dtype=DTYPE), requires_grad=True, name="surrogate.dummy")

    def quality(self, arch: Architecture, inputs, labels) -> float:
        value = float(self._quality_fn(arch))
        if self._noise_sigma > 0:
            value += float(self._rng.normal(0.0, self._noise_sigma))
        return value

    def loss(self, arch: Architecture, inputs, labels) -> Tensor:
        """No weights to train: a zero loss keeps the step structure."""
        return (self._dummy * 0.0).sum()

    def parameters(self) -> List[Tensor]:
        return [self._dummy]

    def zero_grad(self) -> None:
        self._dummy.zero_grad()

    def state_dict(self) -> dict:
        """Dummy parameter plus the observation-noise rng stream.

        The rng state matters for checkpointing: a resumed search must
        see the same noisy quality draws an uninterrupted run would.
        """
        return {
            "dummy": self._dummy.data.copy(),
            "rng": self._rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        self._dummy.data[:] = np.asarray(state["dummy"])
        self._rng.bit_generator.state = state["rng"]
