"""MBConv and fused-MBConv block builders (Figure 4a of the paper).

An MBConv is expand (1x1 conv) -> depthwise conv -> project (1x1 conv)
with optional squeeze-and-excite and a skip connection.  A fused
MBConv merges the depthwise convolution into the expansion as one dense
``k x k`` convolution: more FLOPs, but all of them run on the matrix
unit at high operational intensity — the trade-off Figure 4b/4c maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..graph.ir import OpGraph
from ..graph import ops


@dataclass(frozen=True)
class MbconvSpec:
    """One MBConv / fused-MBConv layer."""

    block_type: str  # "mbconv" | "fused_mbconv"
    cin: int
    cout: int
    kernel: int = 3
    stride: int = 1
    expansion: int = 6
    se_ratio: float = 0.25
    activation: str = "swish"
    skip: str = "identity"

    def __post_init__(self) -> None:
        if self.block_type not in ("mbconv", "fused_mbconv"):
            raise ValueError(f"unknown block type {self.block_type!r}")
        if min(self.cin, self.cout, self.kernel, self.stride, self.expansion) < 1:
            raise ValueError("block dimensions must be positive")


def add_mbconv(
    graph: OpGraph,
    name: str,
    spec: MbconvSpec,
    height: int,
    width: int,
    batch: int = 1,
    after: Optional[str] = None,
) -> Tuple[str, int, int]:
    """Emit one (fused-)MBConv layer into ``graph``.

    Returns ``(last_op_name, out_height, out_width)``.
    """
    hidden = spec.cin * spec.expansion
    out_h = max(1, -(-height // spec.stride))
    out_w = max(1, -(-width // spec.stride))
    last = after
    if spec.block_type == "mbconv":
        if spec.expansion > 1:
            last = ops.conv2d(
                graph, f"{name}/expand", height, width, spec.cin, hidden, 1, 1, batch,
                deps=[last] if last else [],
            )  # fmt: skip
            dw_in = hidden
        else:
            dw_in = spec.cin
        last = ops.depthwise_conv2d(
            graph, f"{name}/depthwise", height, width, dw_in, spec.kernel, spec.stride, batch,
            deps=[last] if last else [],
        )  # fmt: skip
        last = _add_se(graph, name, spec, dw_in, out_h, out_w, batch, last)
        last = ops.conv2d(
            graph, f"{name}/project", out_h, out_w, dw_in, spec.cout, 1, 1, batch, deps=[last]
        )
    else:
        # Fused: expansion and depthwise merged into one k x k convolution.
        last = ops.conv2d(
            graph, f"{name}/fused", height, width, spec.cin, hidden, spec.kernel, spec.stride,
            batch, deps=[last] if last else [],
        )  # fmt: skip
        last = _add_se(graph, name, spec, hidden, out_h, out_w, batch, last)
        if spec.expansion > 1:
            last = ops.conv2d(
                graph, f"{name}/project", out_h, out_w, hidden, spec.cout, 1, 1, batch,
                deps=[last],
            )  # fmt: skip
    elements = batch * out_h * out_w * spec.cout
    last = ops.elementwise(graph, f"{name}/act", elements, op_type="activation", deps=[last])
    if spec.skip == "identity" and spec.stride == 1 and spec.cin == spec.cout:
        last = ops.elementwise(graph, f"{name}/skip_add", elements, op_type="add", deps=[last])
    return last, out_h, out_w


def _add_se(
    graph: OpGraph,
    name: str,
    spec: MbconvSpec,
    channels: int,
    out_h: int,
    out_w: int,
    batch: int,
    last: str,
) -> str:
    """Squeeze-and-excite: global pool + two dense layers + scale."""
    if spec.se_ratio <= 0:
        return last
    se_channels = max(1, int(round(channels * spec.se_ratio)))
    last = ops.pooling(
        graph, f"{name}/se_pool", out_h, out_w, channels, max(out_h, 1), batch, deps=[last]
    )
    last = ops.dense(graph, f"{name}/se_reduce", batch, channels, se_channels, deps=[last])
    last = ops.dense(graph, f"{name}/se_expand", batch, se_channels, channels, deps=[last])
    return ops.elementwise(
        graph, f"{name}/se_scale", batch * out_h * out_w * channels, op_type="mul", deps=[last]
    )


def single_block_graph(
    spec: MbconvSpec, resolution: int, batch: int = 1, name: str = "block"
) -> OpGraph:
    """A graph holding exactly one block (for the Figure 4 study)."""
    graph = OpGraph(f"{spec.block_type}({spec.cin})")
    add_mbconv(graph, name, spec, resolution, resolution, batch)
    return graph


def block_params(spec: MbconvSpec) -> int:
    """Trainable parameter count of one block (weights only)."""
    hidden = spec.cin * spec.expansion
    params = 0
    if spec.block_type == "mbconv":
        inner = hidden if spec.expansion > 1 else spec.cin
        if spec.expansion > 1:
            params += spec.cin * hidden  # expand 1x1
        params += spec.kernel * spec.kernel * inner  # depthwise
        params += inner * spec.cout  # project 1x1
    else:
        inner = hidden
        params += spec.kernel * spec.kernel * spec.cin * hidden  # fused k x k
        if spec.expansion > 1:
            params += hidden * spec.cout  # project 1x1
    if spec.se_ratio > 0:
        se_channels = max(1, int(round(inner * spec.se_ratio)))
        params += 2 * inner * se_channels
    return params
