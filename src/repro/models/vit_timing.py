"""ViT timing: lower ViT-space architectures to simulator op graphs.

Consumes architectures from :func:`repro.searchspace.vit_search_space`
(and its hybrid variant) and prices every searchable dimension on the
hardware simulator:

* ``hidden_size`` sets the projection and FFN matmul shapes;
* ``low_rank`` factorizes the QKV projection into two matmuls of rank
  ``fraction * hidden`` (compute saving, extra op);
* ``seq_pooling`` halves the sequence entering later layers/blocks;
* ``primer`` adds the depthwise convolution over the sequence after
  the attention projection (a vector-unit op);
* ``depth_delta`` sets the number of layers per block;
* stem decisions (``patch_size``, ``resolution``) set the sequence
  length; conv blocks of the hybrid space are priced through the CNN
  lowering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Tuple

from ..graph.ir import OpGraph
from ..graph import ops
from ..hardware.config import HardwareConfig, TPU_V4, TPU_V4I
from ..searchspace.base import Architecture
from .timing import TimingHarness
from .mbconv import MbconvSpec, add_mbconv

HEAD_DIM = 64
FFN_RATIO = 4
DTYPE_BYTES = 2.0
#: Channel plan of the hybrid space's convolutional blocks.
HYBRID_CONV_WIDTHS = (64, 128)
HYBRID_CONV_BASE_DEPTH = 2
HYBRID_WIDTH_QUANTUM = 8


@dataclass(frozen=True)
class VitBaseline:
    """Context the ViT space's decisions are priced in."""

    name: str = "vit_baseline"
    num_blocks: int = 2
    base_depth: int = 4
    resolution: int = 224
    patch_size: int = 16
    num_classes: int = 1000

    def __post_init__(self) -> None:
        if self.base_depth < 1 or self.num_blocks < 1:
            raise ValueError("depths and block counts must be positive")
        if self.resolution < self.patch_size:
            raise ValueError("resolution must be at least one patch")


def _stem_geometry(baseline: VitBaseline, arch: Architecture) -> Tuple[int, int]:
    resolution = int(arch.get("resolution", baseline.resolution))
    patch = int(arch.get("patch_size", baseline.patch_size))
    side = max(1, resolution // patch)
    return resolution, side * side


def build_vit_graph(
    baseline: VitBaseline, arch: Architecture, batch: int = 8
) -> OpGraph:
    """Lower ``arch`` (over ``baseline``) to an operator graph."""
    graph = OpGraph(f"{baseline.name}_candidate")
    resolution, seq = _stem_geometry(baseline, arch)
    patch = int(arch.get("patch_size", baseline.patch_size))
    first_width = int(arch["tfm0/hidden_size"])
    stem_width = (
        HYBRID_CONV_WIDTHS[0] if "block0/type" in arch else first_width
    )
    last = ops.conv2d(graph, "patchify", resolution, resolution, 3, stem_width, patch, patch, batch)
    width = stem_width
    # Hybrid space: convolutional blocks between the stem and the
    # transformer stages (the CoAtNet shape Table 5's hybrid row builds).
    side = max(1, resolution // patch)
    h = w = side
    conv_block = 0
    while f"block{conv_block}/type" in arch:
        stage_width = max(
            HYBRID_WIDTH_QUANTUM,
            HYBRID_CONV_WIDTHS[min(conv_block, len(HYBRID_CONV_WIDTHS) - 1)]
            + HYBRID_WIDTH_QUANTUM * int(arch[f"block{conv_block}/width_delta"]),
        )
        depth = max(1, HYBRID_CONV_BASE_DEPTH + int(arch[f"block{conv_block}/depth_delta"]))
        for layer in range(depth):
            spec = MbconvSpec(
                block_type=str(arch[f"block{conv_block}/type"]),
                cin=width if layer == 0 else stage_width,
                cout=stage_width,
                kernel=int(arch[f"block{conv_block}/kernel"]),
                stride=int(arch[f"block{conv_block}/stride"]) if layer == 0 else 1,
                expansion=int(arch[f"block{conv_block}/expansion"]),
                se_ratio=float(arch[f"block{conv_block}/se_ratio"]),
                skip=str(arch[f"block{conv_block}/skip"]),
            )
            last, h, w = add_mbconv(
                graph, f"conv{conv_block}l{layer}", spec, h, w, batch, last
            )
        width = stage_width
        conv_block += 1
    if conv_block:
        seq = h * w
    for block in range(baseline.num_blocks):
        hidden = int(arch[f"tfm{block}/hidden_size"])
        if hidden != width:
            last = ops.dense(graph, f"t{block}/in_proj", batch * seq, width, hidden, deps=[last])
            width = hidden
        depth = max(1, baseline.base_depth + int(arch[f"tfm{block}/depth_delta"]))
        rank_fraction = float(arch[f"tfm{block}/low_rank"])
        primer = bool(arch[f"tfm{block}/primer"])
        for layer in range(depth):
            last = _add_layer(
                graph, f"t{block}l{layer}", width, seq, batch, last,
                rank_fraction=rank_fraction, primer=primer,
            )
        if bool(arch[f"tfm{block}/seq_pooling"]) and seq > 1:
            last = ops.pooling(graph, f"t{block}/seq_pool", 1, seq, width, 2, batch, deps=[last])
            seq = max(1, seq // 2)
    ops.dense(graph, "classifier", batch, width, baseline.num_classes, deps=[last])
    return graph


def _add_layer(
    graph: OpGraph,
    name: str,
    width: int,
    seq: int,
    batch: int,
    last: str,
    rank_fraction: float,
    primer: bool,
) -> str:
    heads = max(1, width // HEAD_DIM)
    if rank_fraction < 1.0:
        rank = max(8, int(round(rank_fraction * width)))
        last = ops.dense(graph, f"{name}/qkv_u", batch * seq, width, rank, deps=[last])
        last = ops.dense(graph, f"{name}/qkv_v", batch * seq, rank, 3 * width, deps=[last])
    else:
        last = ops.dense(graph, f"{name}/qkv", batch * seq, width, 3 * width, deps=[last])
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
    if primer:
        # Primer's channel-wise depthwise convolution over the sequence.
        last = ops.depthwise_conv2d(
            graph, f"{name}/primer_dw", 1, seq, width, 3, 1, batch, deps=[last]
        )
    last = ops.dense(graph, f"{name}/ffn1", batch * seq, width, FFN_RATIO * width, deps=[last])
    last = ops.elementwise(
        graph, f"{name}/act", batch * seq * FFN_RATIO * width, op_type="activation", deps=[last]
    )
    return ops.dense(graph, f"{name}/ffn2", batch * seq, FFN_RATIO * width, width, deps=[last])


def num_params(baseline: VitBaseline, arch: Architecture) -> float:
    """Trainable parameter count of the candidate."""
    patch = int(arch.get("patch_size", baseline.patch_size))
    width = int(arch["tfm0/hidden_size"])
    total = float(patch * patch * 3 * width)
    prev = width
    for block in range(baseline.num_blocks):
        hidden = int(arch[f"tfm{block}/hidden_size"])
        if hidden != prev:
            total += prev * hidden
            prev = hidden
        depth = max(1, baseline.base_depth + int(arch[f"tfm{block}/depth_delta"]))
        rank_fraction = float(arch[f"tfm{block}/low_rank"])
        if rank_fraction < 1.0:
            rank = max(8, int(round(rank_fraction * hidden)))
            qkv = hidden * rank + rank * 3 * hidden
        else:
            qkv = 3 * hidden * hidden
        per_layer = qkv + hidden * hidden + 2 * FFN_RATIO * hidden * hidden
        if bool(arch[f"tfm{block}/primer"]):
            per_layer += 3 * hidden
        total += depth * per_layer
    total += prev * baseline.num_classes
    return total


class VitTimingHarness(TimingHarness):
    """Times ViT-space candidates for training and serving."""

    def __init__(
        self,
        baseline: VitBaseline = VitBaseline(),
        train_hw: HardwareConfig = TPU_V4,
        serve_hw: HardwareConfig = TPU_V4I,
        train_batch: int = 64,
        serve_batch: int = 8,
        seed: int = 0,
    ):
        self.baseline = baseline
        self.train_batch = train_batch
        self.serve_batch = serve_batch
        super().__init__(
            partial(build_vit_graph, baseline, batch=train_batch),
            partial(build_vit_graph, baseline, batch=serve_batch),
            partial(num_params, baseline),
            DTYPE_BYTES,
            train_hw,
            serve_hw,
            seed,
        )
