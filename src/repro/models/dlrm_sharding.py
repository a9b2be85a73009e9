"""DLRM embedding-table sharding across accelerator chips.

Production DLRMs shard their embedding tables across the training
slice (Section 5.1: "embedding layers are usually distributed across
ML accelerators") and the paper's simulator models "model sharding and
partitioning" (Section 6.2.3).  This module plans that sharding:

* tables are assigned to chips by greedy balanced partitioning of
  their *bandwidth load* (lookup bytes per step — the quantity that
  serializes within a chip's memory system);
* every chip gathers its local tables' rows and exchanges them with
  all other chips (the all-to-all), so the per-step embedding time is
  the *max over chips* of local gather time plus the all-to-all;
* a plan also checks per-chip HBM capacity, the launch constraint that
  makes model size a search objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..hardware.config import HardwareConfig, TPU_V4
from .dlrm import DlrmModelSpec, TableSpec

EMBEDDING_DTYPE_BYTES = 4.0


@dataclass(frozen=True)
class ShardPlan:
    """An assignment of embedding tables to chips."""

    num_chips: int
    #: per-chip tuple of table indices
    assignments: Tuple[Tuple[int, ...], ...]
    #: per-chip resident embedding bytes
    resident_bytes: Tuple[float, ...]
    #: per-chip lookup traffic per step (bytes)
    lookup_bytes: Tuple[float, ...]

    @property
    def max_resident_bytes(self) -> float:
        return max(self.resident_bytes)

    @property
    def load_imbalance(self) -> float:
        """Max over mean lookup-load ratio (1.0 = perfectly balanced)."""
        mean = sum(self.lookup_bytes) / self.num_chips
        if mean == 0:
            return 1.0
        return max(self.lookup_bytes) / mean

    def fits_memory(self, hw: HardwareConfig) -> bool:
        """Whether every chip's resident tables fit its HBM."""
        return hw.fits_memory(self.max_resident_bytes)


def _table_loads(spec: DlrmModelSpec) -> List[Tuple[float, float, int]]:
    """(lookup_bytes, resident_bytes, table_index) per table."""
    loads = []
    for index, table in enumerate(spec.tables):
        lookup = spec.batch * spec.lookups_per_table * table.width * EMBEDDING_DTYPE_BYTES
        loads.append((lookup, table.param_bytes, index))
    return loads


def plan_sharding(spec: DlrmModelSpec, num_chips: int) -> ShardPlan:
    """Greedy balanced partition of ``spec``'s tables over ``num_chips``.

    Tables are placed largest-lookup-load first onto the currently
    least-loaded chip — the classic LPT heuristic, within 4/3 of the
    optimal makespan.
    """
    if num_chips < 1:
        raise ValueError("num_chips must be >= 1")
    assignments: List[List[int]] = [[] for _ in range(num_chips)]
    lookup_bytes = [0.0] * num_chips
    resident_bytes = [0.0] * num_chips
    for lookup, resident, index in sorted(_table_loads(spec), reverse=True):
        chip = min(range(num_chips), key=lambda c: lookup_bytes[c])
        assignments[chip].append(index)
        lookup_bytes[chip] += lookup
        resident_bytes[chip] += resident
    return ShardPlan(
        num_chips=num_chips,
        assignments=tuple(tuple(a) for a in assignments),
        resident_bytes=tuple(resident_bytes),
        lookup_bytes=tuple(lookup_bytes),
    )


@dataclass(frozen=True)
class ShardedEmbeddingTime:
    """Per-step embedding-pipeline time under a shard plan."""

    gather_time_s: float  # slowest chip's local gathers
    all_to_all_time_s: float  # exchanging rows with every other chip


def embedding_step_time(
    spec: DlrmModelSpec, plan: ShardPlan, hw: HardwareConfig = TPU_V4
) -> ShardedEmbeddingTime:
    """Embedding time per training step under ``plan`` on ``hw``.

    Gathers read and write each looked-up row locally (2x lookup
    bytes over HBM); the all-to-all then redistributes a
    ``(num_chips - 1) / num_chips`` fraction of the gathered rows over
    the interconnect (rows destined for the local chip stay put).
    """
    slowest_lookup = max(plan.lookup_bytes)
    gather = 2.0 * slowest_lookup / hw.hbm_bandwidth
    if plan.num_chips == 1:
        return ShardedEmbeddingTime(gather_time_s=gather, all_to_all_time_s=0.0)
    remote_fraction = (plan.num_chips - 1) / plan.num_chips
    a2a = slowest_lookup * remote_fraction / hw.ici_bandwidth
    return ShardedEmbeddingTime(gather_time_s=gather, all_to_all_time_s=a2a)
