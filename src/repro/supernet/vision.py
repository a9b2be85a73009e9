"""Vision proxy super-network for the CNN/ViT search spaces.

The paper trains its vision super-networks at full scale on TPU pods;
on CPU we exercise the same one-shot machinery with a *proxy*
super-network over feature vectors.  The proxy honours the
capacity-relevant decisions of the convolutional search space —
width delta, depth delta, expansion ratio, activation, squeeze-and-
excite ratio, and skip connections — through the same masking-based
fine-grained weight sharing the real super-network uses.  Decisions
that only matter for hardware performance (kernel size, stride, tensor
reshaping, MBConv vs fused MBConv) do not change the proxy's quality
path; they flow to the performance model instead, exactly as in the
paper where performance comes from the perf model rather than the
super-network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

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
from ..searchspace.base import Architecture
from ..searchspace.cnn import DEPTH_DELTAS, EXPANSION_RATIOS, WIDTH_DELTAS
from .batching import StackedScoringMixin
from .elastic import ElasticLayerStack, elastic_width

#: Width quantum of the proxy (channels per width-delta unit).
WIDTH_INCREMENT = 4


@dataclass(frozen=True)
class VisionSupernetConfig:
    """Baseline proxy model the super-network is built around."""

    num_blocks: int = 2
    num_features: int = 16
    num_classes: int = 4
    base_width: int = 24
    base_depth: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_width + min(WIDTH_DELTAS) * WIDTH_INCREMENT < WIDTH_INCREMENT:
            raise ValueError("base_width must leave room for the -5 width delta")
        if self.base_depth < 1:
            raise ValueError("base_depth must be >= 1")

    @property
    def max_width(self) -> int:
        return self.base_width + max(WIDTH_DELTAS) * WIDTH_INCREMENT

    @property
    def max_depth(self) -> int:
        return self.base_depth + max(DEPTH_DELTAS)

    @property
    def max_expansion(self) -> int:
        return max(EXPANSION_RATIOS)

    def block_width(self, delta: int) -> int:
        return elastic_width(self.base_width, delta, WIDTH_INCREMENT)

    def block_depth(self, delta: int) -> int:
        return min(self.max_depth, max(1, self.base_depth + delta))


class _ProxyBlock(Module):
    """One searchable block: expand -> project with optional SE and skip."""

    def __init__(self, max_width: int, max_expansion: int, rng: np.random.Generator, max_depth: int):
        self.max_width = max_width
        hidden = max_width * max_expansion
        self.expands = ElasticLayerStack(
            [
                MaskedDense(max_width, hidden, rng, activation_name="linear")
                for _ in range(max_depth)
            ]
        )
        self.projects = ElasticLayerStack(
            [
                MaskedDense(hidden, max_width, rng, activation_name="linear")
                for _ in range(max_depth)
            ]
        )
        self.se_reduce = ElasticLayerStack(
            [
                MaskedDense(max_width, max_width, rng, activation_name="relu")
                for _ in range(max_depth)
            ]
        )
        self.se_expand = ElasticLayerStack(
            [
                MaskedDense(max_width, max_width, rng, activation_name="sigmoid")
                for _ in range(max_depth)
            ]
        )

    def forward(
        self,
        x: Tensor,
        in_width: int,
        width: int,
        depth: int,
        expansion: int,
        act_name: str,
        se_ratio: float,
        skip: str,
    ) -> Tensor:
        act = activation_fn(act_name)
        expands = self.expands.active(depth)
        projects = self.projects.active(depth)
        se_reduce = self.se_reduce.active(depth)
        se_expand = self.se_expand.active(depth)
        for i in range(depth):
            layer_in = in_width if i == 0 else width
            hidden = width * expansion
            h = act(expands[i](x, active_in=layer_in, active_out=hidden))
            h = projects[i](h, active_in=hidden, active_out=width)
            if se_ratio > 0:
                se_width = max(1, int(round(width * se_ratio)))
                gate = se_expand[i](
                    se_reduce[i](h, active_in=width, active_out=se_width),
                    active_in=se_width,
                    active_out=width,
                )
                h = h * gate
            if skip == "identity" and layer_in == width:
                h = h + x
            x = h
        return x


class VisionSuperNetwork(StackedScoringMixin, Module):
    """Proxy super-network consuming CNN-space architectures."""

    def __init__(self, config: Optional[VisionSupernetConfig] = None):
        self.config = config = config or VisionSupernetConfig()
        rng = np.random.default_rng(config.seed)
        self.stem = Dense(config.num_features, config.max_width, rng, activation_name="relu")
        self.blocks = [
            _ProxyBlock(config.max_width, config.max_expansion, rng, config.max_depth)
            for _ in range(config.num_blocks)
        ]
        self.head = Dense(config.max_width, config.num_classes, rng, activation_name="linear")

    def forward(self, arch: Architecture, inputs: Dict[str, np.ndarray]) -> Tensor:
        cfg = self.config
        x = self.stem(Tensor(np.asarray(inputs["x"], dtype=self.stem.weight.data.dtype)))
        in_width = cfg.max_width  # stem emits full width
        for b, block in enumerate(self.blocks):
            width = cfg.block_width(int(arch[f"block{b}/width_delta"]))
            depth = cfg.block_depth(int(arch[f"block{b}/depth_delta"]))
            x = block(
                x,
                in_width=in_width,
                width=width,
                depth=depth,
                expansion=int(arch[f"block{b}/expansion"]),
                act_name=str(arch[f"block{b}/activation"]),
                se_ratio=float(arch[f"block{b}/se_ratio"]),
                skip=str(arch[f"block{b}/skip"]),
            )
            in_width = width
        return self.head(x)

    def loss_from_logits(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        return softmax_cross_entropy(logits, labels)

    def quality_from_logits(self, logits: Tensor, labels: np.ndarray) -> float:
        """Top-1 accuracy from logits (the quality signal Q)."""
        return accuracy(logits, labels)
