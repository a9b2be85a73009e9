"""Analytical ML performance simulator.

This is the reproduction's stand-in for the paper's in-house simulator
(Section 6.2.3): it stacks the ops of a batch of
:class:`~repro.graph.ir.OpGraph` into columns, computes every op's time
from the hardware roofline (matrix unit, vector unit, HBM, on-chip CMEM,
and interconnect) as one array program, and sums each graph's critical
path.  It also keeps the counters the paper's hardware analysis uses
(Figure 7): total FLOPs, achieved FLOP/s, HBM and CMEM traffic, busy time.

Memory placement model: parameters always stream from HBM; activation
tensors stay in CMEM when they fit in half the scratchpad (the
compiler double-buffers), otherwise they spill to HBM.  Embedding
gathers always hit HBM (tables are far larger than CMEM).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Sequence

import numpy as np

from ..graph.ir import OpGraph, OpNode, UNIT_MEMORY, UNIT_MXU, UNIT_NETWORK
from ..graph.passes import optimize
from .config import HardwareConfig
from .roofline import compute_rate

#: Fraction of CMEM usable for activations (rest is double-buffering slack).
CMEM_USABLE_FRACTION = 0.5

#: The leading rows of the program's table: the ``SimulationResult`` totals.
TOTALS = ("serial_time_s", "total_flops", "hbm_bytes", "cmem_bytes",
          "network_bytes", "param_bytes", "mxu_busy_s", "vpu_busy_s")  # fmt: skip
_FOOTPRINT = [attrgetter(f) for f in ("flops", "bytes_in", "bytes_out", "param_bytes", "network_bytes")]


@dataclass
class OpTiming:
    """Per-operator simulation outcome."""

    name: str
    op_type: str
    time_s: float
    compute_time_s: float
    memory_time_s: float
    network_time_s: float
    flops: float
    hbm_bytes: float
    cmem_bytes: float
    bound: str  # "compute" | "memory" | "network" | "overhead"


class _LazyOpTimings:
    """The ``op_timings`` field of a result: per-op outcomes in ``nodes()``
    order, built from the program's columns when first read (a search
    reads totals only and never builds one)."""

    def __get__(self, result, owner=None):
        if result is None:
            return None  # the dataclass default: not built yet
        timings = result.__dict__["op_timings"]
        if timings is None:
            timings = result.__dict__["op_timings"] = {}
            ops, table, overhead = result._columns or ((), np.empty((12, 0)), 0.0)
            for op, row in zip(ops, table.T.tolist()):
                time, _, hbm, cmem, _, _, _, _, compute, memory, network, body = row
                if body <= overhead:
                    bound = "overhead"
                elif body == compute:
                    bound = "compute"
                else:
                    bound = "memory" if body == memory else "network"
                timings[op.name] = OpTiming(
                    op.name, op.op_type, time, compute, memory, network, op.flops, hbm, cmem, bound
                )
        return timings

    def __set__(self, result, value) -> None:
        result.__dict__["op_timings"] = value


@dataclass
class SimulationResult:
    """Whole-graph simulation outcome with hardware counters."""

    graph_name: str
    hardware: str
    total_time_s: float = 0.0
    serial_time_s: float = 0.0
    total_flops: float = 0.0
    hbm_bytes: float = 0.0
    cmem_bytes: float = 0.0
    network_bytes: float = 0.0
    param_bytes: float = 0.0
    mxu_busy_s: float = 0.0
    vpu_busy_s: float = 0.0
    critical_path: List[str] = field(default_factory=list)
    op_timings: Dict[str, OpTiming] = _LazyOpTimings()
    #: not a field: (the graph's ops, their table columns, the op overhead)
    _columns = None

    @property
    def achieved_flops(self) -> float:
        """End-to-end FLOP/s (the paper's "compute rate")."""
        return self.total_flops / self.total_time_s if self.total_time_s > 0 else 0.0

    @property
    def achieved_tflops(self) -> float:
        return self.achieved_flops / 1e12

    @property
    def hbm_bandwidth_used(self) -> float:
        """Average HBM bytes/s over the run."""
        return self.hbm_bytes / self.total_time_s if self.total_time_s > 0 else 0.0

    @property
    def cmem_bandwidth_used(self) -> float:
        return self.cmem_bytes / self.total_time_s if self.total_time_s > 0 else 0.0

    @property
    def total_memory_bytes(self) -> float:
        return self.hbm_bytes + self.cmem_bytes

    @property
    def operational_intensity(self) -> float:
        total = self.total_memory_bytes
        return self.total_flops / total if total > 0 else 0.0

    def bound_fraction(self, bound: str) -> float:
        """Fraction of serial time spent in ops limited by ``bound``."""
        if self.serial_time_s <= 0:
            return 0.0
        limited = 0
        for timing in self.op_timings.values():
            if timing.bound == bound:
                limited += timing.time_s
        return limited / self.serial_time_s


class PerformanceSimulator:
    """Roofline-based operator-graph simulator for one accelerator.

    With ``run_compiler_passes=True`` the simulator first applies the
    XLA-style optimization passes of :mod:`repro.graph.passes`
    (elementwise fusion, dead-op elimination), mirroring the paper's
    simulator behaviour on unoptimized TensorFlow graphs; HLO-style
    pre-optimized graphs should be timed as-is (the default).
    """

    def __init__(self, hw: HardwareConfig, run_compiler_passes: bool = False):
        self.hw = hw
        self.run_compiler_passes = run_compiler_passes

    def _table(self, ops: Sequence[OpNode]) -> np.ndarray:
        """The roofline of ``ops``, a float64 row per quantity: rows 0-7 are
        :data:`TOTALS`, 8-11 the compute, memory, network times and their max."""
        hw = self.hw
        # a flat list per column: tuples per op are garbage the collector walks
        flops, bytes_in, bytes_out, params, network = np.array(
            [list(map(column, ops)) for column in _FOOTPRINT], dtype=np.float64
        )
        flags = [
            [op.unit == UNIT_MXU for op in ops],
            [op.unit not in (UNIT_MXU, UNIT_MEMORY, UNIT_NETWORK) for op in ops],
            [op.op_type == "embedding_lookup" for op in ops],  # tables dwarf CMEM: all HBM
            [bool(op.attrs.get("cmem_resident")) for op in ops],  # fused: never leaves the chip
        ]
        on_mxu, on_vpu, gather, resident = np.array(flags, dtype=bool)
        # Only a matrix op that computes has its dims read.  A short view
        # is padded with a multiple of both tiles: efficiency exactly 1.0.
        dims = [op.dims if op.unit == UNIT_MXU and op.flops > 0 else () for op in ops]
        fill = hw.batch_tile * hw.mxu_tile
        axes = [
            [view[axis] if len(view) > axis else fill for view in dims]
            for axis in range(max(map(len, dims), default=0))
        ]
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero rate: infinite time
            rate = compute_rate(on_mxu, np.array(axes, dtype=np.float64), hw)
            compute = np.where(flops > 0, flops / np.maximum(rate, 0.0), 0.0)
        budget = hw.cmem_capacity_bytes * CMEM_USABLE_FRACTION
        in_cmem = ~gather & (resident | (bytes_in <= budget))
        out_cmem = ~gather & (resident | (bytes_out <= budget))
        cmem = np.where(in_cmem, bytes_in, 0.0) + np.where(out_cmem, bytes_out, 0.0)
        spilled = params + np.where(in_cmem, 0.0, bytes_in) + np.where(out_cmem, 0.0, bytes_out)
        hbm = np.where(gather, params + (bytes_in + bytes_out), spilled)
        memory = hbm / hw.hbm_bandwidth + cmem / hw.cmem_bandwidth
        wire = network / hw.ici_bandwidth
        body = np.maximum(np.maximum(compute, memory), wire)
        return np.array([
            body + hw.op_overhead_s, flops, hbm, cmem, network, params,
            np.where(on_mxu, compute, 0.0), np.where(on_vpu, compute, 0.0),
            compute, memory, wire, body,
        ])  # fmt: skip

    def time_op(self, op: OpNode) -> OpTiming:
        """Roofline time for a single operator."""
        result = SimulationResult(op.name, self.hw.name)
        result._columns = ([op], self._table([op]), self.hw.op_overhead_s)
        return result.op_timings[op.name]

    def simulate_many(self, graphs: Sequence[OpGraph]) -> List[SimulationResult]:
        """Simulate every graph of ``graphs`` in one array program.

        The ops of all graphs, each in its ``nodes()`` order, are the
        columns of one table (:meth:`_table`).  A graph's totals are
        running sums over its own columns: ``accumulate`` adds left to
        right where ``np.sum`` adds pairwise, so every float is the one
        a per-op ``+=`` walk gives, whatever else shares the program.
        ``total_time_s`` is the critical path (parallel branches overlap,
        e.g. a DLRM's embedding pipeline vs. its bottom MLP);
        ``serial_time_s`` sums all op times, for utilization bookkeeping.
        """
        if self.run_compiler_passes:
            graphs = [optimize(graph) for graph in graphs]
        orders = [graph.nodes() for graph in graphs]
        table = self._table([op for order in orders for op in order])
        results, stop = [], 0
        for graph, order in zip(graphs, orders):
            start, stop = stop, stop + len(order)
            result = SimulationResult(graph_name=graph.name, hardware=self.hw.name)
            results.append(result)
            if order:  # an empty graph keeps its zeros
                columns = table[:, start:stop]
                totals = np.add.accumulate(columns[: len(TOTALS)], axis=1)[:, -1]
                for label, total in zip(TOTALS, totals.tolist()):
                    setattr(result, label, total)
                weights = dict(zip([op.name for op in order], columns[0].tolist()))
                result.critical_path = graph.critical_path(weights)
                for name in result.critical_path:
                    result.total_time_s += weights[name]
                result._columns = (order, columns, self.hw.op_overhead_s)
        return results

    def simulate(self, graph: OpGraph) -> SimulationResult:
        """Simulate ``graph`` end to end."""
        return self.simulate_many([graph])[0]


def simulate(graph: OpGraph, hw: HardwareConfig) -> SimulationResult:
    """Convenience wrapper: simulate ``graph`` on ``hw``."""
    return PerformanceSimulator(hw).simulate(graph)
