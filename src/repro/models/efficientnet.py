"""EfficientNet-X baseline and the H2O-NAS-designed EfficientNet-H family.

The family follows the compound-scaling recipe of EfficientNet /
EfficientNet-X: a stage template (widths, depths, kernels, strides,
block types) scaled per model by width/depth coefficients and an input
resolution.  EfficientNet-X places fused MBConvs in the early
high-resolution stages (where Figure 4 shows fusion wins) and MBConvs
later.

EfficientNet-H (Section 7.1.3): identical to the baseline for B0-B4;
for B5-B7 the search changes the expansion ratios of the dynamic fused
MBConv stages from uniformly 6 to a mixture of 4 and 6, which is where
Table 4's ~15% B5-B7 speedup comes from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.ir import OpGraph
from ..graph import ops
from .mbconv import MbconvSpec, add_mbconv, block_params

#: Stage template: (block_type, kernel, stride, expansion, base_width, base_layers)
STAGE_TEMPLATE: Tuple[Tuple[str, int, int, int, int, int], ...] = (
    ("fused_mbconv", 3, 1, 1, 16, 1),
    ("fused_mbconv", 3, 2, 6, 24, 2),
    ("fused_mbconv", 5, 2, 6, 40, 2),
    ("mbconv", 3, 2, 6, 80, 3),
    ("mbconv", 5, 1, 6, 112, 3),
    ("mbconv", 5, 2, 6, 192, 4),
    ("mbconv", 3, 1, 6, 320, 1),
)

STEM_WIDTH = 32
HEAD_WIDTH = 1280
NUM_CLASSES = 1000


@dataclass(frozen=True)
class EfficientNetConfig:
    """One model of an EfficientNet-style family."""

    name: str
    width_coef: float
    depth_coef: float
    resolution: int
    #: Optional per-stage expansion overrides (None keeps the template).
    expansions: Optional[Tuple[Optional[int], ...]] = None

    def __post_init__(self) -> None:
        if self.width_coef <= 0 or self.depth_coef <= 0 or self.resolution <= 0:
            raise ValueError("scaling coefficients and resolution must be positive")
        if self.expansions is not None and len(self.expansions) != len(STAGE_TEMPLATE):
            raise ValueError("expansions override must cover every stage")


def _round_width(width: float) -> int:
    """Round channels to the nearest multiple of 8 (hardware-friendly)."""
    return max(8, int(8 * round(width / 8)))


def _round_depth(depth: float) -> int:
    return max(1, int(math.ceil(depth)))


@dataclass(frozen=True)
class StageSpec:
    """A resolved stage: one block spec repeated ``layers`` times."""

    block: MbconvSpec
    layers: int


def stage_specs(config: EfficientNetConfig) -> List[StageSpec]:
    """Resolve the scaled stages of ``config``."""
    stages: List[StageSpec] = []
    cin = _round_width(STEM_WIDTH * config.width_coef)
    for i, (btype, kernel, stride, expansion, width, layers) in enumerate(STAGE_TEMPLATE):
        if config.expansions is not None and config.expansions[i] is not None:
            expansion = config.expansions[i]
        cout = _round_width(width * config.width_coef)
        stages.append(
            StageSpec(
                block=MbconvSpec(
                    block_type=btype,
                    cin=cin,
                    cout=cout,
                    kernel=kernel,
                    stride=stride,
                    expansion=expansion,
                ),
                layers=_round_depth(layers * config.depth_coef),
            )
        )
        cin = cout
    return stages


def build_graph(config: EfficientNetConfig, batch: int = 1) -> OpGraph:
    """Lower ``config`` to an operator graph for the simulator."""
    graph = OpGraph(config.name)
    res = config.resolution
    stem_width = _round_width(STEM_WIDTH * config.width_coef)
    last = ops.conv2d(graph, "stem", res, res, 3, stem_width, 3, 2, batch)
    h = w = max(1, -(-res // 2))
    cin = stem_width
    for s, stage in enumerate(stage_specs(config)):
        for layer in range(stage.layers):
            spec = stage.block
            # Only the first layer of a stage strides / changes width.
            if layer > 0:
                spec = replace(spec, cin=spec.cout, stride=1)
            else:
                spec = replace(spec, cin=cin)
            last, h, w = add_mbconv(graph, f"s{s}l{layer}", spec, h, w, batch, last)
        cin = stage.block.cout
    head_width = _round_width(HEAD_WIDTH * config.width_coef)
    last = ops.conv2d(graph, "head", h, w, cin, head_width, 1, 1, batch, deps=[last])
    last = ops.pooling(graph, "avg_pool", h, w, head_width, max(h, 1), batch, deps=[last])
    ops.dense(graph, "classifier", batch, head_width, NUM_CLASSES, deps=[last])
    return graph


def num_params(config: EfficientNetConfig) -> int:
    """Trainable parameter count of ``config``."""
    total = 3 * 3 * 3 * _round_width(STEM_WIDTH * config.width_coef)
    cin = _round_width(STEM_WIDTH * config.width_coef)
    for stage in stage_specs(config):
        for layer in range(stage.layers):
            spec = stage.block
            spec = replace(spec, cin=spec.cout) if layer > 0 else replace(spec, cin=cin)
            total += block_params(spec)
        cin = stage.block.cout
    head_width = _round_width(HEAD_WIDTH * config.width_coef)
    total += cin * head_width
    total += head_width * NUM_CLASSES
    return total


#: Compound-scaling table: (width_coef, depth_coef, resolution).
_SCALING: Tuple[Tuple[str, float, float, int], ...] = (
    ("b0", 1.0, 1.0, 224),
    ("b1", 1.0, 1.1, 240),
    ("b2", 1.1, 1.2, 260),
    ("b3", 1.2, 1.4, 300),
    ("b4", 1.4, 1.8, 380),
    ("b5", 1.6, 2.2, 456),
    ("b6", 1.8, 2.6, 528),
    ("b7", 2.0, 3.1, 600),
)

#: The searched expansion mixture of EfficientNet-H B5-B7: the MBConv
#: stages alternate expansion 4 and 6 instead of uniform 6.
_H_EXPANSIONS: Tuple[Optional[int], ...] = (None, None, None, 4, 6, 4, 6)

EFFICIENTNET_X: Dict[str, EfficientNetConfig] = {
    name: EfficientNetConfig(f"efficientnet_x_{name}", w, d, r)
    for name, w, d, r in _SCALING
}

EFFICIENTNET_H: Dict[str, EfficientNetConfig] = {
    name: EfficientNetConfig(
        f"efficientnet_h_{name}",
        w,
        d,
        r,
        expansions=_H_EXPANSIONS if name in ("b5", "b6", "b7") else None,
    )
    for name, w, d, r in _SCALING
}
