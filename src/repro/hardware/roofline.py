"""Roofline-model helpers (Figure 4b of the paper).

The roofline model bounds an op's attainable compute rate by
``min(peak_flops, operational_intensity * memory_bandwidth)``.  These
helpers evaluate that bound for an :class:`~repro.graph.ir.OpNode` on a
:class:`~repro.hardware.config.HardwareConfig`, including the
matrix-unit padding efficiency that creates the performance cliffs the
paper's search spaces are designed around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..graph.ir import OpNode, UNIT_MXU
from .config import HardwareConfig


def tile_efficiency(dim, tile):
    """Fraction of a ``tile``-wide unit kept busy by a ``dim``-long axis.

    A systolic array processes axes in multiples of its tile edge; a
    dimension of 100 on a 128-wide MXU wastes 28/128 of the lanes.
    ``dim`` is a number or a column of them, as for every expression
    here: the simulator evaluates all ops of a batch of graphs at once.
    """
    if np.min(dim) <= 0:
        raise ValueError("dimension must be positive")
    return dim / (np.ceil(dim / tile) * tile)


def mxu_efficiency(dims: Sequence, hw: HardwareConfig):
    """Combined padding efficiency of an (m, k, n) matmul view."""
    tiles = (hw.batch_tile,) + (hw.mxu_tile,) * (len(dims) - 1)
    eff = 1.0
    for dim, tile in zip(dims, tiles):  # multiplied left to right
        eff = eff * tile_efficiency(dim, tile)
    return eff


def compute_rate(on_mxu, dims: Sequence, hw: HardwareConfig):
    """Attainable FLOP/s ignoring memory (the flat roof): the padded
    matrix peak where ``on_mxu``, the vector peak elsewhere."""
    matrix_rate = hw.peak_matrix_flops * mxu_efficiency(dims, hw)
    return np.where(on_mxu, matrix_rate, hw.peak_vector_flops)


def peak_compute_rate(op: OpNode, hw: HardwareConfig) -> float:
    """Attainable FLOP/s for ``op`` ignoring memory (the flat roof)."""
    on_mxu = op.unit == UNIT_MXU  # only a matrix op's dims are read
    return float(compute_rate(on_mxu, op.dims if on_mxu else (), hw))


@dataclass(frozen=True)
class RooflinePoint:
    """One op placed on the roofline chart."""

    name: str
    operational_intensity: float  # FLOPs / byte
    attained_flops: float  # FLOP/s under the roofline bound
    compute_bound: bool

    @property
    def attained_tflops(self) -> float:
        return self.attained_flops / 1e12


def roofline_point(op: OpNode, hw: HardwareConfig) -> RooflinePoint:
    """Place ``op`` on the HBM roofline of ``hw``."""
    intensity = op.operational_intensity
    roof = peak_compute_rate(op, hw)
    memory_rate = intensity * hw.hbm_bandwidth
    attained = min(roof, memory_rate) if intensity > 0 else 0.0
    return RooflinePoint(
        name=op.name,
        operational_intensity=intensity,
        attained_flops=attained,
        compute_bound=bool(intensity > 0 and roof <= memory_rate),
    )
