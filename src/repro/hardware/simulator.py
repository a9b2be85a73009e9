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

from dataclasses import dataclass
from itertools import chain, zip_longest
from typing import Dict, List, Sequence

import numpy as np

from ..graph.ir import FOOTPRINT, UNITS, OpGraph, OpNode, UNIT_MXU, UNIT_VPU
from ..graph.passes import optimize
from .config import HardwareConfig
from .roofline import compute_rate

#: Fraction of CMEM usable for activations (rest is double-buffering slack).
CMEM_USABLE_FRACTION = 0.5

#: The leading rows of the program's table: the ``SimulationResult`` totals.
TOTALS = ("serial_time_s", "total_flops", "hbm_bytes", "cmem_bytes",
          "network_bytes", "param_bytes", "mxu_busy_s", "vpu_busy_s")  # fmt: skip


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


def _op_timings(graph, order, table, overhead, path) -> Dict[str, OpTiming]:
    timings = {}
    for row, values in zip(order, table.T.tolist()):
        time, _, hbm, cmem, _, _, _, _, compute, memory, network, body = values
        if body <= overhead:
            bound = "overhead"
        elif body == compute:
            bound = "compute"
        else:
            bound = "memory" if body == memory else "network"
        name, flops = graph.names[row], graph.flops[row]
        timings[name] = OpTiming(
            name, graph.op_types[row], time, compute, memory, network, flops, hbm, cmem, bound
        )
    return timings


class _Lazy:
    """A result field built from the program's columns when first read
    (a search reads totals only and never builds one)."""

    def __init__(self, build, empty):
        self.build, self.empty = build, empty

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, result, owner=None):
        if result is None:
            return None  # the dataclass default: not built yet
        value = result.__dict__[self.name]
        if value is None:
            columns = result._columns
            value = self.build(*columns) if columns else self.empty()
            result.__dict__[self.name] = value
        return value

    def __set__(self, result, value) -> None:
        result.__dict__[self.name] = value


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
    #: names along the longest path (parallel branches overlap)
    critical_path: List[str] = _Lazy(
        lambda graph, order, table, overhead, path: [graph.names[row] for row in path], list
    )
    #: per-op outcomes in the graph's ``order()``
    op_timings: Dict[str, OpTiming] = _Lazy(_op_timings, dict)
    #: not a field: (graph, its ``order()``, its table columns in that
    #: order, the op overhead, the longest path's rows)
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

    def _table(self, graphs: Sequence[OpGraph]) -> np.ndarray:
        """The roofline of every op of ``graphs``, a column per op, graph
        after graph, each in its rows' order: a float64 row per quantity,
        rows 0-7 are :data:`TOTALS`, 8-11 the compute, memory, network
        times and their max."""
        hw = self.hw

        def stacked(column):
            return list(chain.from_iterable(getattr(graph, column) for graph in graphs))

        flops, bytes_in, bytes_out, params, network = np.array(
            [stacked(column) for column in FOOTPRINT], dtype=np.float64
        )
        units = np.array(stacked("units"), dtype=np.intp)
        on_mxu, on_vpu = units == UNITS.index(UNIT_MXU), units == UNITS.index(UNIT_VPU)
        gather, resident = np.array([stacked("gather"), stacked("resident")], dtype=bool)
        # Only a matrix op that computes has its dims read.  A short view
        # is padded with a multiple of both tiles: efficiency exactly 1.0.
        fill = hw.batch_tile * hw.mxu_tile
        axes = list(zip_longest(*stacked("dims"), fillvalue=fill))  # a row per axis
        axes = np.array(axes, dtype=np.float64).reshape(len(axes), len(flops))
        axes[:, ~(on_mxu & (flops > 0))] = fill
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero rate: infinite time
            rate = compute_rate(on_mxu, axes, hw)
            compute = np.where(flops > 0, flops / np.maximum(rate, 0.0), 0.0)
        budget = hw.cmem_capacity_bytes * CMEM_USABLE_FRACTION
        on_chip = ~gather
        in_cmem = on_chip & (resident | (bytes_in <= budget))
        out_cmem = on_chip & (resident | (bytes_out <= budget))
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
        graph = OpGraph(op.name)
        graph.add(op)
        return self.simulate(graph).op_timings[op.name]

    def simulate_many(self, graphs: Sequence[OpGraph]) -> List[SimulationResult]:
        """Simulate every graph of ``graphs`` in one array program.

        The ops of all graphs are the columns of one table
        (:meth:`_table`), computed on the graphs' own columns.  A graph's
        totals are running sums over its table columns in its ``order()``:
        ``accumulate`` adds left to right where ``np.sum`` adds pairwise,
        so every float is the one a per-op ``+=`` walk gives, whatever
        else shares the program.  ``total_time_s`` is the longest path
        (parallel branches overlap, e.g. a DLRM's embedding pipeline vs.
        its bottom MLP); ``serial_time_s`` sums all op times, for
        utilization bookkeeping.
        """
        if self.run_compiler_passes:
            graphs = [optimize(graph) for graph in graphs]
        orders, starts = [graph.order() for graph in graphs], [0]
        for graph in graphs:
            starts.append(starts[-1] + len(graph))
        # every graph's columns in its ``order()``, graph after graph
        table = self._table(graphs)[
            :, [start + row for start, order in zip(starts, orders) for row in order]
        ]
        weights = table[0].tolist()
        results = []
        for graph, order, start, stop in zip(graphs, orders, starts, starts[1:]):
            result = SimulationResult(graph_name=graph.name, hardware=self.hw.name)
            results.append(result)
            if start < stop:  # an empty graph keeps its zeros
                columns = table[:, start:stop]
                totals = np.add.accumulate(columns[: len(TOTALS)], axis=1)[:, -1]
                for label, total in zip(TOTALS, totals.tolist()):
                    setattr(result, label, total)
                path, result.total_time_s = graph.longest_path(weights[start:stop])
                result._columns = (graph, order, columns, self.hw.op_overhead_s, path)
        return results

    def simulate(self, graph: OpGraph) -> SimulationResult:
        """Simulate ``graph`` end to end."""
        return self.simulate_many([graph])[0]


def simulate(graph: OpGraph, hw: HardwareConfig) -> SimulationResult:
    """Convenience wrapper: simulate ``graph`` on ``hw``."""
    return PerformanceSimulator(hw).simulate(graph)
