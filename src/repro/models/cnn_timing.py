"""CNN timing: lower CNN-space architectures to simulator op graphs.

Consumes architectures from :func:`repro.searchspace.cnn_search_space`
— block type, kernel, stride, expansion, squeeze-and-excite, skip,
tensor reshaping, depth/width deltas, and the global input resolution —
relative to an EfficientNet-style staged baseline, and prices them on
any :class:`~repro.hardware.config.HardwareConfig`.

Tensor reshaping follows the search space's hardware intent:

* ``space_to_depth`` trades spatial extent for channel depth
  (H, W, C) -> (H/2, W/2, 4C), deepening thin early layers so they can
  fill the matrix unit;
* ``space_to_batch`` folds spatial tiles into the batch dimension,
  (B, H, W) -> (4B, H/2, W/2), improving the streaming-dimension
  utilization instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, Tuple

from ..graph.ir import OpGraph
from ..graph import ops
from ..hardware.config import HardwareConfig, TPU_V4, TPU_V4I
from ..searchspace.base import Architecture
from .timing import TimingHarness
from .mbconv import MbconvSpec, add_mbconv, block_params

#: Channel quantum of the width deltas (the model-dependent X of Table 5).
WIDTH_QUANTUM = 8
DTYPE_BYTES = 2.0


@dataclass(frozen=True)
class CnnBaseline:
    """Staged baseline the CNN search space's deltas are relative to."""

    name: str = "cnn_baseline"
    stage_widths: Tuple[int, ...] = (24, 48, 96, 136)
    stage_depths: Tuple[int, ...] = (2, 2, 3, 3)
    stem_width: int = 24
    num_classes: int = 1000

    def __post_init__(self) -> None:
        if len(self.stage_widths) != len(self.stage_depths):
            raise ValueError("stage widths and depths must align")
        if any(w < WIDTH_QUANTUM for w in self.stage_widths):
            raise ValueError("stage widths must be at least one quantum")

    @property
    def num_blocks(self) -> int:
        return len(self.stage_widths)


def resolve_stage(baseline: CnnBaseline, arch: Architecture, block: int) -> Dict:
    """Concrete stage parameters for ``block`` under ``arch``."""
    width = baseline.stage_widths[block] + WIDTH_QUANTUM * int(
        arch[f"block{block}/width_delta"]
    )
    depth = baseline.stage_depths[block] + int(arch[f"block{block}/depth_delta"])
    return {
        "block_type": str(arch[f"block{block}/type"]),
        "kernel": int(arch[f"block{block}/kernel"]),
        "stride": int(arch[f"block{block}/stride"]),
        "expansion": int(arch[f"block{block}/expansion"]),
        "se_ratio": float(arch[f"block{block}/se_ratio"]),
        "skip": str(arch[f"block{block}/skip"]),
        "reshaping": str(arch[f"block{block}/reshaping"]),
        "width": max(WIDTH_QUANTUM, width),
        "depth": max(1, depth),
    }


def build_cnn_graph(
    baseline: CnnBaseline, arch: Architecture, batch: int = 8
) -> OpGraph:
    """Lower ``arch`` (over ``baseline``) to an operator graph."""
    graph = OpGraph(f"{baseline.name}_candidate")
    resolution = int(arch["resolution"]) if "resolution" in arch else 224
    stem = ops.conv2d("stem", resolution, resolution, 3, baseline.stem_width, 3, 2, batch)
    graph.add(stem)
    last = stem.name
    h = w = max(1, resolution // 2)
    cin = baseline.stem_width
    current_batch = batch
    for block in range(baseline.num_blocks):
        stage = resolve_stage(baseline, arch, block)
        last, h, w, cin, current_batch = _add_reshaping(
            graph, f"b{block}/reshape", stage["reshaping"], last, h, w, cin, current_batch
        )
        for layer in range(stage["depth"]):
            spec = MbconvSpec(
                block_type=stage["block_type"],
                cin=cin if layer == 0 else stage["width"],
                cout=stage["width"],
                kernel=stage["kernel"],
                stride=stage["stride"] if layer == 0 else 1,
                expansion=stage["expansion"],
                se_ratio=stage["se_ratio"],
                skip=stage["skip"],
            )
            last, h, w = add_mbconv(
                graph, f"b{block}l{layer}", spec, h, w, current_batch, last
            )
        cin = stage["width"]
    pool = ops.pooling("avg_pool", h, w, cin, max(h, 1), current_batch)
    graph.add(pool, deps=[last])
    head = ops.dense("classifier", current_batch, cin, baseline.num_classes)
    graph.add(head, deps=["avg_pool"])
    return graph


def _add_reshaping(
    graph: OpGraph,
    name: str,
    kind: str,
    last: str,
    h: int,
    w: int,
    channels: int,
    batch: int,
) -> Tuple[str, int, int, int, int]:
    """Emit the chosen tensor-reshaping op and update the dims."""
    if kind == "none" or h < 2 or w < 2:
        return last, h, w, channels, batch
    moved = batch * h * w * channels * DTYPE_BYTES
    node = ops.concat(name, batch * h * w * channels)
    node = replace(node, name=name, op_type=f"reshape_{kind}")
    graph.add(node, deps=[last])
    if kind == "space_to_depth":
        return node.name, h // 2, w // 2, channels * 4, batch
    if kind == "space_to_batch":
        return node.name, h // 2, w // 2, channels, batch * 4
    raise ValueError(f"unknown reshaping {kind!r}")


def num_params(baseline: CnnBaseline, arch: Architecture) -> float:
    """Trainable parameter count of the candidate."""
    total = 3 * 3 * 3 * baseline.stem_width
    cin = baseline.stem_width
    channel_gain = 1
    for block in range(baseline.num_blocks):
        stage = resolve_stage(baseline, arch, block)
        if stage["reshaping"] == "space_to_depth":
            cin *= 4
        for layer in range(stage["depth"]):
            spec = MbconvSpec(
                block_type=stage["block_type"],
                cin=cin if layer == 0 else stage["width"],
                cout=stage["width"],
                kernel=stage["kernel"],
                expansion=stage["expansion"],
                se_ratio=stage["se_ratio"],
            )
            total += block_params(spec)
        cin = stage["width"]
    total += cin * baseline.num_classes
    return float(total)


class CnnTimingHarness(TimingHarness):
    """Times CNN-space candidates for training and serving."""

    def __init__(
        self,
        baseline: CnnBaseline = CnnBaseline(),
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
            partial(build_cnn_graph, baseline, batch=train_batch),
            partial(build_cnn_graph, baseline, batch=serve_batch),
            partial(num_params, baseline),
            DTYPE_BYTES,
            train_hw,
            serve_hw,
            seed,
        )
