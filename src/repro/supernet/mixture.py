"""Mixture super-network for gradient-based (DARTS-style) search.

The paper's taxonomy (Sections 2.1, 3) contrasts RL-based one-shot
search with gradient-based search, which "eliminates the need for an RL
controller by making the reward differentiable with a softmax layer
over all model candidates" — at the cost that every step must
"compute gradients for all sub-networks".  This module provides the
substrate for that baseline: an MLP super-network whose per-layer
width and activation decisions can be evaluated either

* **discretely** (one sub-network, the RL/one-shot regime), or
* **as a softmax mixture** over all choices (the DARTS regime) —
  width mixtures blend the choice masks; activation mixtures must
  evaluate *every* activation function, which is exactly where the
  gradient-based cost multiplier comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..nn import (
    Dense,
    MaskedDense,
    Module,
    Tensor,
    accuracy,
    activation as activation_fn,
    softmax_cross_entropy,
)
from ..searchspace.base import Architecture, Decision, SearchSpace
from .batching import StackedScoringMixin


@dataclass(frozen=True)
class MixtureSupernetConfig:
    """Shape of the mixture super-network."""

    num_layers: int = 2
    num_features: int = 16
    num_classes: int = 4
    width_choices: Tuple[int, ...] = (8, 16, 24, 32)
    activation_choices: Tuple[str, ...] = ("relu", "swish", "gelu", "squared_relu")
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if not self.width_choices or not self.activation_choices:
            raise ValueError("need at least one width and one activation choice")
        if any(w < 1 for w in self.width_choices):
            raise ValueError("widths must be positive")

    @property
    def max_width(self) -> int:
        return max(self.width_choices)


def mixture_search_space(config: MixtureSupernetConfig) -> SearchSpace:
    """The discrete space the mixture super-network realizes."""
    decisions: List[Decision] = []
    for layer in range(config.num_layers):
        decisions.append(
            Decision(f"layer{layer}/width", config.width_choices, ("mlp", "width"))
        )
        decisions.append(
            Decision(
                f"layer{layer}/activation",
                config.activation_choices,
                ("mlp", "activation"),
            )
        )
    return SearchSpace("mixture_mlp", decisions)


class MixtureSuperNetwork(StackedScoringMixin, Module):
    """MLP with per-layer width/activation choices, discrete or mixed."""

    def __init__(self, config: Optional[MixtureSupernetConfig] = None):
        self.config = config = config or MixtureSupernetConfig()
        rng = np.random.default_rng(config.seed)
        width = config.max_width
        self.layers: List[MaskedDense] = []
        for layer in range(config.num_layers):
            nin = config.num_features if layer == 0 else width
            self.layers.append(MaskedDense(nin, width, rng, activation_name="linear"))
        self.head = Dense(width, config.num_classes, rng, activation_name="linear")
        # Constant per-choice masks used by the soft-width mixture.
        self._width_masks = np.zeros((len(config.width_choices), width))
        for c, choice in enumerate(config.width_choices):
            self._width_masks[c, :choice] = 1.0

    # ------------------------------------------------------------------
    # Discrete (one-shot / RL) path
    # ------------------------------------------------------------------
    def forward(self, arch: Architecture, inputs: Mapping[str, np.ndarray]) -> Tensor:
        cfg = self.config
        x = Tensor(inputs["x"])
        in_width = cfg.num_features
        for layer_index, layer in enumerate(self.layers):
            width = int(arch[f"layer{layer_index}/width"])
            act = activation_fn(str(arch[f"layer{layer_index}/activation"]))
            x = act(layer(x, active_in=in_width, active_out=width))
            in_width = width
        return self.head(x)

    def loss_from_logits(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        return softmax_cross_entropy(logits, labels)

    def quality_from_logits(self, logits: Tensor, labels: np.ndarray) -> float:
        return accuracy(logits, labels)

    # ------------------------------------------------------------------
    # Mixture (gradient-based / DARTS) path
    # ------------------------------------------------------------------
    def forward_mixture(
        self,
        probabilities: Mapping[str, Tensor],
        inputs: Mapping[str, np.ndarray],
    ) -> Tensor:
        """Softmax-relaxed forward: every choice contributes.

        ``probabilities`` maps decision name -> probability Tensor (one
        per choice); gradients flow to them through the mixture.  Width
        mixtures reduce to a soft output mask (cheap); activation
        mixtures evaluate *every* activation function (the cost the
        paper's taxonomy charges gradient-based search with).
        """
        cfg = self.config
        x = Tensor(inputs["x"])
        for layer_index, layer in enumerate(self.layers):
            width_probs = probabilities[f"layer{layer_index}/width"]
            act_probs = probabilities[f"layer{layer_index}/activation"]
            pre = layer(x)  # full-width affine once
            soft_mask = width_probs @ Tensor(self._width_masks)
            masked = pre * soft_mask
            mixed = None
            for c, name in enumerate(cfg.activation_choices):
                onehot = np.zeros(len(cfg.activation_choices))
                onehot[c] = 1.0
                weight = (act_probs * Tensor(onehot)).sum()
                term = activation_fn(name)(masked) * weight
                mixed = term if mixed is None else mixed + term
            x = mixed
        return self.head(x)

    def loss_mixture(self, probabilities, inputs, labels) -> Tensor:
        return softmax_cross_entropy(
            self.forward_mixture(probabilities, inputs), labels
        )

    #: Sub-network evaluations implied by one mixture forward: every
    #: activation branch of every layer runs (width mixtures fold into a
    #: mask).  One discrete forward counts as 1.
    @property
    def mixture_branch_count(self) -> int:
        return self.config.num_layers * len(self.config.activation_choices)
