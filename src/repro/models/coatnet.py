"""CoAtNet baseline and the H2O-NAS-designed CoAtNet-H family.

CoAtNet is a hybrid network: two convolutional (MBConv) stages followed
by two transformer stages.  The family configs follow the published
CoAtNet-0..5 widths/depths; CoAtNet-H applies the three searched
changes Table 3 ablates:

* **DeeperConv** — four extra layers in the convolutional part
  (12 -> 16 for CoAtNet-5);
* **ResShrink** — pretraining resolution 224 -> 160 (trading image
  resolution for model depth is TPU-friendly: less memory-bound
  attention, more matrix-unit work);
* **SquaredReLU** — the transformer activation becomes ``relu(x)^2``,
  recovering the quality the resolution shrink cost, at negligible
  hardware cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from ..graph.ir import OpGraph
from ..graph import ops
from .mbconv import MbconvSpec, add_mbconv, block_params

NUM_CLASSES = 1000
MLP_RATIO = 4
STEM_WIDTH = 64
CONV_EXPANSION = 4
HEAD_DIM = 64


@dataclass(frozen=True)
class CoatNetConfig:
    """One CoAtNet-style hybrid model."""

    name: str
    resolution: int
    conv_widths: Tuple[int, int]
    conv_depths: Tuple[int, int]
    tfm_widths: Tuple[int, int]
    tfm_depths: Tuple[int, int]
    activation: str = "gelu"

    def __post_init__(self) -> None:
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        for group in (self.conv_widths, self.conv_depths, self.tfm_widths, self.tfm_depths):
            if any(v <= 0 for v in group):
                raise ValueError("widths and depths must be positive")

    @property
    def conv_layers(self) -> int:
        """Total layers in the convolutional part (Table 3's knob)."""
        return sum(self.conv_depths)

    def with_deeper_conv(self, extra_layers: int = 4) -> "CoatNetConfig":
        """The +DeeperConv change: extra layers in the second conv stage."""
        depths = (self.conv_depths[0], self.conv_depths[1] + extra_layers)
        return replace(self, conv_depths=depths)

    def with_resolution(self, resolution: int) -> "CoatNetConfig":
        """The +ResShrink change."""
        return replace(self, resolution=resolution)

    def with_activation(self, activation: str) -> "CoatNetConfig":
        """The +SquaredReLU change."""
        return replace(self, activation=activation)


def _seq_len(resolution: int, downsample: int) -> int:
    side = max(1, resolution // downsample)
    return side * side


def build_graph(config: CoatNetConfig, batch: int = 1) -> OpGraph:
    """Lower ``config`` to an operator graph for the simulator."""
    graph = OpGraph(config.name)
    res = config.resolution
    last = ops.conv2d(graph, "stem", res, res, 3, STEM_WIDTH, 3, 2, batch)
    h = w = max(1, res // 2)
    cin = STEM_WIDTH
    # Convolutional stages (MBConv, expansion 4, stride 2 at stage entry).
    for s, (width, depth) in enumerate(zip(config.conv_widths, config.conv_depths)):
        for layer in range(depth):
            spec = MbconvSpec(
                block_type="mbconv",
                cin=cin if layer == 0 else width,
                cout=width,
                kernel=3,
                stride=2 if layer == 0 else 1,
                expansion=CONV_EXPANSION,
                se_ratio=0.25,
            )
            last, h, w = add_mbconv(graph, f"c{s}l{layer}", spec, h, w, batch, last)
        cin = width
    # Transformer stages at 1/8 and 1/16 of the input resolution.
    for s, (width, depth) in enumerate(zip(config.tfm_widths, config.tfm_depths)):
        seq = _seq_len(config.resolution, 8 * (2**s))
        last = ops.dense(graph, f"t{s}/in_proj", batch * seq, cin, width, deps=[last])
        for layer in range(depth):
            last = _add_transformer_layer(
                graph, f"t{s}l{layer}", width, seq, batch, last
            )
        cin = width
    seq = _seq_len(config.resolution, 16)
    last = ops.pooling(graph, "seq_pool", 1, seq, cin, 1, batch, deps=[last])
    ops.dense(graph, "classifier", batch, cin, NUM_CLASSES, deps=[last])
    return graph


def _add_transformer_layer(
    graph: OpGraph, name: str, width: int, seq: int, batch: int, last: str
) -> str:
    """Self-attention + MLP with the usual op decomposition."""
    heads = max(1, width // HEAD_DIM)
    last = ops.dense(graph, f"{name}/qkv", batch * seq, width, 3 * width, deps=[last])
    # Per-head attention matmuls: the contracting dimension is the head
    # dim (64), which only half-fills a 128-wide matrix unit — one of
    # the efficiency cliffs the hardware-optimized search space is
    # designed around.
    last = ops.matmul(
        graph, f"{name}/qk", seq, HEAD_DIM, seq, batch * heads, cmem_resident=True, deps=[last]
    )
    last = ops.softmax(
        graph, f"{name}/softmax", batch * heads * seq, seq, cmem_resident=True, deps=[last]
    )
    last = ops.matmul(
        graph, f"{name}/av", seq, seq, HEAD_DIM, batch * heads, cmem_resident=True, deps=[last]
    )
    last = ops.dense(graph, f"{name}/out_proj", batch * seq, width, width, deps=[last])
    last = ops.dense(graph, f"{name}/ffn1", batch * seq, width, MLP_RATIO * width, deps=[last])
    last = ops.elementwise(
        graph, f"{name}/act", batch * seq * MLP_RATIO * width, op_type="activation", deps=[last]
    )
    return ops.dense(graph, f"{name}/ffn2", batch * seq, MLP_RATIO * width, width, deps=[last])


def num_params(config: CoatNetConfig) -> int:
    """Trainable parameter count of ``config``."""
    total = 3 * 3 * 3 * STEM_WIDTH
    cin = STEM_WIDTH
    for width, depth in zip(config.conv_widths, config.conv_depths):
        for layer in range(depth):
            spec = MbconvSpec(
                block_type="mbconv",
                cin=cin if layer == 0 else width,
                cout=width,
                expansion=CONV_EXPANSION,
                se_ratio=0.25,
            )
            total += block_params(spec)
        cin = width
    for width, depth in zip(config.tfm_widths, config.tfm_depths):
        total += cin * width  # stage input projection
        per_layer = 3 * width * width + width * width + 2 * MLP_RATIO * width * width
        total += depth * per_layer
        cin = width
    total += cin * NUM_CLASSES
    return total


#: Published CoAtNet family shapes (conv stages S1-S2, TFM stages S3-S4).
_FAMILY: Tuple[Tuple[str, Tuple[int, int], Tuple[int, int], Tuple[int, int], Tuple[int, int]], ...] = (
    ("0", (96, 192), (2, 3), (384, 768), (5, 2)),
    ("1", (96, 192), (2, 6), (384, 768), (14, 2)),
    ("2", (128, 256), (2, 6), (512, 1024), (14, 2)),
    ("3", (192, 384), (2, 6), (768, 1536), (14, 2)),
    ("4", (192, 384), (2, 12), (768, 1536), (28, 2)),
    ("5", (256, 512), (2, 10), (1280, 2048), (28, 2)),
)

COATNET: Dict[str, CoatNetConfig] = {
    idx: CoatNetConfig(
        name=f"coatnet_{idx}",
        resolution=224,
        conv_widths=cw,
        conv_depths=cd,
        tfm_widths=tw,
        tfm_depths=td,
        activation="gelu",
    )
    for idx, cw, cd, tw, td in _FAMILY
}


def coatnet_h(baseline: CoatNetConfig) -> CoatNetConfig:
    """Apply the three searched CoAtNet-H changes to a baseline config.

    The extra convolution depth scales with the baseline's conv part
    (one third, i.e. +4 layers for CoAtNet-5's 12), keeping quality
    neutral across the whole family as in Figure 6.
    """
    extra = max(1, round(baseline.conv_layers / 3))
    searched = (
        baseline.with_deeper_conv(extra)
        .with_resolution(160)
        .with_activation("squared_relu")
    )
    return replace(searched, name=baseline.name.replace("coatnet", "coatnet_h"))


COATNET_H: Dict[str, CoatNetConfig] = {idx: coatnet_h(cfg) for idx, cfg in COATNET.items()}
