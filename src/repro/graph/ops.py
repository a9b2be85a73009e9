"""Constructors for common ML operators with their resource footprints.

Each helper appends one op to a graph (:meth:`OpGraph.append`, its
positional arguments in :class:`OpNode` field order) and returns its
name, so a builder threads ``deps=[last]`` through a chain.

FLOP and byte accounting conventions:

* one multiply-accumulate = 2 FLOPs (the paper's convention — e.g. the
  MBConv FLOP counts in Figure 4 follow it);
* activations and weights default to 2 bytes (bf16 on TPUs); embedding
  tables default to 4 bytes (fp32), matching production DLRM practice;
* convolutions are counted in their im2col matmul view, which is also
  how the matrix-unit padding efficiency is estimated.
"""

from __future__ import annotations

import math
from typing import Iterable

from .ir import OpGraph, UNIT_MEMORY, UNIT_MXU, UNIT_NETWORK, UNIT_VPU

DEFAULT_DTYPE_BYTES = 2.0
EMBEDDING_DTYPE_BYTES = 4.0
#: ``attrs`` of an op the compiler keeps on chip (one shared, never mutated)
_RESIDENT = {"cmem_resident": 1.0}


def _out_hw(size: int, stride: int) -> int:
    return max(1, math.ceil(size / stride))


def conv2d(
    graph: OpGraph,
    name: str,
    height: int,
    width: int,
    cin: int,
    cout: int,
    kernel: int,
    stride: int = 1,
    batch: int = 1,
    dtype_bytes: float = DEFAULT_DTYPE_BYTES,
    *, deps: Iterable[str] = (),
) -> str:
    """A standard 2-D convolution executed on the matrix unit."""
    out_h, out_w = _out_hw(height, stride), _out_hw(width, stride)
    flops = 2.0 * batch * out_h * out_w * cin * cout * kernel * kernel
    bytes_in = batch * height * width * cin * dtype_bytes
    bytes_out = batch * out_h * out_w * cout * dtype_bytes
    params = kernel * kernel * cin * cout * dtype_bytes
    dims = (batch * out_h * out_w, kernel * kernel * cin, cout)
    return graph.append(
        name, "conv2d", flops, bytes_in, bytes_out, params, UNIT_MXU, dims, deps=deps
    )


def depthwise_conv2d(
    graph: OpGraph,
    name: str,
    height: int,
    width: int,
    channels: int,
    kernel: int,
    stride: int = 1,
    batch: int = 1,
    dtype_bytes: float = DEFAULT_DTYPE_BYTES,
    *, deps: Iterable[str] = (),
) -> str:
    """Depthwise convolution: cheap in FLOPs but runs on the vector unit.

    Depthwise convolutions cannot fill a systolic matrix unit (each
    output channel touches one input channel), which is exactly why the
    paper's fused MBConv — replacing depthwise + 1x1 with one dense
    convolution — can be *faster* despite more FLOPs (Figure 4).
    """
    out_h, out_w = _out_hw(height, stride), _out_hw(width, stride)
    flops = 2.0 * batch * out_h * out_w * channels * kernel * kernel
    bytes_in = batch * height * width * channels * dtype_bytes
    bytes_out = batch * out_h * out_w * channels * dtype_bytes
    params = kernel * kernel * channels * dtype_bytes
    dims = (batch * out_h * out_w, kernel * kernel, channels)
    return graph.append(
        name, "depthwise_conv2d", flops, bytes_in, bytes_out, params, UNIT_VPU, dims, deps=deps
    )


def dense(
    graph: OpGraph,
    name: str,
    batch: int,
    nin: int,
    nout: int,
    dtype_bytes: float = DEFAULT_DTYPE_BYTES,
    *, deps: Iterable[str] = (),
) -> str:
    """Fully-connected layer ``(batch, nin) @ (nin, nout)``."""
    flops = 2.0 * batch * nin * nout
    bytes_in, bytes_out = batch * nin * dtype_bytes, batch * nout * dtype_bytes
    params = nin * nout * dtype_bytes
    return graph.append(
        name, "dense", flops, bytes_in, bytes_out, params, UNIT_MXU, (batch, nin, nout), deps=deps
    )


def matmul(
    graph: OpGraph,
    name: str,
    m: int,
    k: int,
    n: int,
    batch: int = 1,
    dtype_bytes: float = DEFAULT_DTYPE_BYTES,
    cmem_resident: bool = False,
    *, deps: Iterable[str] = (),
) -> str:
    """Activation-by-activation matmul (no parameters), e.g. QK^T / AV.

    ``cmem_resident`` marks intermediates the compiler keeps on-chip via
    fusion/blocking (attention score matrices never round-trip to HBM);
    the simulator then charges their traffic to CMEM bandwidth.
    """
    flops = 2.0 * batch * m * k * n
    bytes_in = batch * (m * k + k * n) * dtype_bytes
    bytes_out = batch * m * n * dtype_bytes
    return graph.append(
        name, "matmul", flops, bytes_in, bytes_out, 0.0, UNIT_MXU, (batch * m, k, n), 0.0,
        _RESIDENT if cmem_resident else None, deps,
    )  # fmt: skip


def embedding_lookup(
    graph: OpGraph,
    name: str,
    lookups: int,
    width: int,
    distributed: bool = True,
    dtype_bytes: float = EMBEDDING_DTYPE_BYTES,
    *, deps: Iterable[str] = (),
) -> str:
    """Sparse embedding gather (+ all-to-all when sharded across chips).

    Embedding layers never touch the matrix unit: they are memory-bound
    gathers and, when tables are sharded across accelerators, also
    network-bound (Section 5.1 of the paper).
    """
    moved = lookups * width * dtype_bytes
    network = moved if distributed else 0.0
    return graph.append(
        name, "embedding_lookup", 0.0, moved, moved, 0.0, UNIT_MEMORY, (), network, None, deps
    )


def elementwise(
    graph: OpGraph,
    name: str,
    elements: float,
    flops_per_element: float = 1.0,
    op_type: str = "elementwise",
    dtype_bytes: float = DEFAULT_DTYPE_BYTES,
    *, deps: Iterable[str] = (),
) -> str:
    """Pointwise op (activation, add, batch-norm apply, ...)."""
    moved = elements * dtype_bytes
    return graph.append(
        name, op_type, elements * flops_per_element, moved, moved, 0.0, UNIT_VPU, deps=deps
    )


def softmax(
    graph: OpGraph,
    name: str,
    rows: int,
    row_length: int,
    dtype_bytes: float = DEFAULT_DTYPE_BYTES,
    cmem_resident: bool = False,
    *, deps: Iterable[str] = (),
) -> str:
    """Row-wise softmax: ~5 vector FLOPs per element (max/sub/exp/sum/div)."""
    elements = rows * row_length
    moved = elements * dtype_bytes
    return graph.append(
        name, "softmax", 5.0 * elements, moved, moved, 0.0, UNIT_VPU, (), 0.0,
        _RESIDENT if cmem_resident else None, deps,
    )  # fmt: skip


def pooling(
    graph: OpGraph,
    name: str,
    height: int,
    width: int,
    channels: int,
    window: int,
    batch: int = 1,
    dtype_bytes: float = DEFAULT_DTYPE_BYTES,
    *, deps: Iterable[str] = (),
) -> str:
    """Average/max pooling over ``window x window``."""
    out_elems = batch * _out_hw(height, window) * _out_hw(width, window) * channels
    elements = batch * height * width * channels  # one FLOP each
    bytes_in, bytes_out = elements * dtype_bytes, out_elems * dtype_bytes
    return graph.append(name, "pooling", elements, bytes_in, bytes_out, 0.0, UNIT_VPU, deps=deps)


def concat(
    graph: OpGraph,
    name: str,
    total_elements: float,
    dtype_bytes: float = DEFAULT_DTYPE_BYTES,
    op_type: str = "concat",
    *, deps: Iterable[str] = (),
) -> str:
    """Concatenation — pure data movement (also any other reshuffle,
    under its own ``op_type``)."""
    moved = total_elements * dtype_bytes
    return graph.append(name, op_type, 0.0, moved, moved, 0.0, UNIT_MEMORY, deps=deps)


def all_to_all(graph: OpGraph, name: str, payload_bytes: float, *, deps: Iterable[str] = ()) -> str:
    """Cross-chip shuffle of ``payload_bytes`` over the interconnect."""
    return graph.append(
        name, "all_to_all", 0.0, payload_bytes, payload_bytes, 0.0, UNIT_NETWORK, (),
        payload_bytes, None, deps,
    )  # fmt: skip
