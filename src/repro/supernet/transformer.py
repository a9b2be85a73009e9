"""Transformer proxy super-network for the ViT search space.

Exercises the Table 5 transformer decisions through a scaled-down but
real attention network over synthetic sequence traffic:

* ``hidden_size`` — fine-grained width masking of every projection
  (one weight matrix at the maximum width, smaller candidates use the
  upper-left block), at a configurable scale-down factor;
* ``low_rank`` — the attention query/key/value projections share
  low-rank factor matrices whose active rank is masked per candidate;
* ``activation`` — the FFN activation (ReLU / swish / GELU / squared
  ReLU, the option H2O-NAS selects for CoAtNet-H);
* ``seq_pooling`` — funnel-style halving of the sequence after the
  block (the performance-aware option from Funnel Transformer);
* ``primer`` — an extra learnable gating layer standing in for
  Primer's post-projection depthwise convolution (capacity-relevant
  proxy; the hardware cost is priced by the simulator instead);
* ``depth_delta`` — the number of layers per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..nn import (
    Dense,
    LayerNorm,
    LowRankDense,
    MaskedDense,
    Module,
    Tensor,
    accuracy,
    activation as activation_fn,
    softmax_cross_entropy,
)
from ..searchspace.base import Architecture
from ..searchspace.vit import DEPTH_DELTAS, HIDDEN_SIZES
from .batching import StackedScoringMixin
from .elastic import ElasticLayerStack


@dataclass(frozen=True)
class TransformerSupernetConfig:
    """Baseline transformer proxy the super-network is built around."""

    num_blocks: int = 1
    num_features: int = 8
    num_classes: int = 4
    #: The search space's hidden sizes (64..1024) divide by this factor
    #: to give the proxy's actual widths (8..128 by default).
    width_divisor: int = 8
    base_depth: int = 2
    ffn_ratio: int = 2
    #: "classification" pools over the sequence; "lm" predicts a label
    #: per position (the NLP use of the transformer space the paper
    #: mentions).  LM mode requires ``seq_pooling`` decisions to be
    #: False — pooling would misalign positions with their labels.
    task: str = "classification"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.width_divisor < 1:
            raise ValueError("width_divisor must be >= 1")
        if self.base_depth < 1:
            raise ValueError("base_depth must be >= 1")
        if self.task not in ("classification", "lm"):
            raise ValueError("task must be 'classification' or 'lm'")

    @property
    def max_width(self) -> int:
        return max(HIDDEN_SIZES) // self.width_divisor

    @property
    def max_depth(self) -> int:
        return self.base_depth + max(DEPTH_DELTAS)

    def proxy_width(self, hidden_size: int) -> int:
        return max(1, hidden_size // self.width_divisor)

    def block_depth(self, delta: int) -> int:
        return min(self.max_depth, max(1, self.base_depth + delta))


class _TransformerLayer(Module):
    """One attention + FFN layer with maskable width and rank."""

    def __init__(self, max_width: int, ffn_ratio: int, rng: np.random.Generator):
        self.max_width = max_width
        self.attn_norm = LayerNorm(max_width)
        self.ffn_norm = LayerNorm(max_width)
        self.qkv = LowRankDense(max_width, 3 * max_width, max_width, rng, activation_name="linear")
        self.out_proj = MaskedDense(max_width, max_width, rng, activation_name="linear")
        self.primer_gate = MaskedDense(max_width, max_width, rng, activation_name="sigmoid")
        self.ffn_up = MaskedDense(max_width, ffn_ratio * max_width, rng, activation_name="linear")
        self.ffn_down = MaskedDense(ffn_ratio * max_width, max_width, rng, activation_name="linear")
        self._ffn_ratio = ffn_ratio

    def forward(
        self,
        x: Tensor,
        width: int,
        rank: int,
        act_name: str,
        primer: bool,
    ) -> Tensor:
        act = activation_fn(act_name)
        normed = self.attn_norm(x, active_width=width)
        qkv = self.qkv(
            normed, active_in=width, active_out=3 * self.max_width, active_rank=rank
        )
        # Split the fused projection: each third is masked to ``width``.
        q = _slice_last(qkv, 0, self.max_width, width)
        k = _slice_last(qkv, self.max_width, 2 * self.max_width, width)
        v = _slice_last(qkv, 2 * self.max_width, 3 * self.max_width, width)
        scale = 1.0 / np.sqrt(max(width, 1))
        scores = (q @ k.transpose(0, 2, 1)) * scale
        attn = scores.softmax(axis=-1)
        context = attn @ v
        out = self.out_proj(context, active_in=width, active_out=width)
        if primer:
            gate = self.primer_gate(out, active_in=width, active_out=width)
            out = out * gate
        x = x + out
        hidden = self._ffn_ratio * width
        normed = self.ffn_norm(x, active_width=width)
        up = act(self.ffn_up(normed, active_in=width, active_out=hidden))
        down = self.ffn_down(up, active_in=hidden, active_out=width)
        return x + down


def _slice_last(tensor: Tensor, start: int, stop: int, active: int) -> Tensor:
    """Select ``[start:start+active]`` of the last axis, keep full width.

    Implemented as a constant mask-and-shift free of fancy indexing:
    the projection weights already route each head's channels into its
    own third, so a mask over ``[start, start+active)`` followed by a
    fixed permutation back to ``[0, width)`` suffices.  Since the mask
    zeroes everything else, a matmul with a constant 0/1 matrix
    performs the shift with full gradient support.
    """
    total = tensor.shape[-1]
    shift = np.zeros((total, stop - start), dtype=tensor.data.dtype)
    for i in range(start, min(stop, start + active)):
        shift[i, i - start] = 1.0
    return tensor @ Tensor(shift)


class TransformerSuperNetwork(StackedScoringMixin, Module):
    """Proxy super-network consuming ViT-space architectures."""

    def __init__(self, config: Optional[TransformerSupernetConfig] = None):
        self.config = config = config or TransformerSupernetConfig()
        rng = np.random.default_rng(config.seed)
        width = config.max_width
        self.embed = Dense(config.num_features, width, rng, activation_name="linear")
        self.blocks: List[ElasticLayerStack] = [
            ElasticLayerStack(
                [
                    _TransformerLayer(width, config.ffn_ratio, rng)
                    for _ in range(config.max_depth)
                ]
            )
            for _ in range(config.num_blocks)
        ]
        self.head = Dense(width, config.num_classes, rng, activation_name="linear")

    def forward(self, arch: Architecture, inputs: Dict[str, np.ndarray]) -> Tensor:
        cfg = self.config
        x = self.embed(Tensor(np.asarray(inputs["x"], dtype=self.embed.weight.data.dtype)))
        for b, stack in enumerate(self.blocks):
            hidden_size = int(arch[f"tfm{b}/hidden_size"])
            width = cfg.proxy_width(hidden_size)
            rank_fraction = float(arch[f"tfm{b}/low_rank"])
            rank = max(1, int(round(rank_fraction * width)))
            depth = cfg.block_depth(int(arch[f"tfm{b}/depth_delta"]))
            act_name = str(arch[f"tfm{b}/activation"])
            primer = bool(arch[f"tfm{b}/primer"])
            # Mask the residual stream down to this block's width.
            mask = np.zeros(cfg.max_width)
            mask[:width] = 1.0
            x = x.mask(mask)
            for layer in stack.active(depth):
                x = layer(x, width=width, rank=rank, act_name=act_name, primer=primer)
            if bool(arch[f"tfm{b}/seq_pooling"]) and x.shape[1] >= 2:
                if cfg.task == "lm":
                    raise ValueError(
                        "sequence pooling is incompatible with per-position "
                        "LM prediction; constrain seq_pooling to False"
                    )
                batch, seq, feat = x.shape
                half = seq // 2
                trimmed = _slice_seq(x, 2 * half)
                x = trimmed.reshape(batch, half, 2, feat).mean(axis=2)
        if cfg.task == "lm":
            return self.head(x)  # (batch, seq, classes)
        pooled = x.mean(axis=1)
        return self.head(pooled)

    def _flatten_lm(self, logits: Tensor, labels: np.ndarray):
        batch, seq, classes = logits.shape
        return logits.reshape(batch * seq, classes), np.asarray(labels).reshape(-1)

    def loss_from_logits(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        if self.config.task == "lm":
            logits, labels = self._flatten_lm(logits, labels)
        return softmax_cross_entropy(logits, labels)

    def quality_from_logits(self, logits: Tensor, labels: np.ndarray) -> float:
        """Top-1 (per-position for LM) accuracy from logits."""
        if self.config.task == "lm":
            logits, labels = self._flatten_lm(logits, labels)
        return accuracy(logits, labels)


def _slice_seq(tensor: Tensor, keep: int) -> Tensor:
    """Keep the first ``keep`` sequence positions (drop an odd tail)."""
    if tensor.shape[1] == keep:
        return tensor
    selector = np.zeros((tensor.shape[1], keep), dtype=tensor.data.dtype)
    for i in range(keep):
        selector[i, i] = 1.0
    narrowed = tensor.transpose(0, 2, 1) @ Tensor(selector)
    return narrowed.transpose(0, 2, 1)
