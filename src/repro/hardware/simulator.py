"""Analytical ML performance simulator.

This is the reproduction's stand-in for the paper's in-house simulator
(Section 6.2.3): it walks an :class:`~repro.graph.ir.OpGraph`, computes
each operator's run-time from the hardware roofline (matrix unit,
vector unit, HBM, on-chip CMEM, and interconnect), and sums the
critical path.  It also keeps the counters the paper's hardware
analysis uses (Figure 7): total FLOPs, achieved FLOP/s, HBM traffic,
CMEM traffic, and per-unit busy time.

Memory placement model: parameters always stream from HBM; activation
tensors stay in CMEM when they fit in half the scratchpad (the
compiler double-buffers), otherwise they spill to HBM.  Embedding
gathers always hit HBM (tables are far larger than CMEM).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..graph.ir import OpGraph, OpNode, UNIT_MEMORY, UNIT_MXU, UNIT_NETWORK
from .config import HardwareConfig
from .roofline import peak_compute_rate

#: Fraction of CMEM usable for activations (rest is double-buffering slack).
CMEM_USABLE_FRACTION = 0.5


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
    op_timings: Dict[str, OpTiming] = field(default_factory=dict)

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
        limited = sum(
            t.time_s for t in self.op_timings.values() if t.bound == bound
        )
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

    # ------------------------------------------------------------------
    def _memory_split(self, op: OpNode) -> Dict[str, float]:
        """Split an op's traffic between CMEM and HBM."""
        hw = self.hw
        cmem_budget = hw.cmem_capacity_bytes * CMEM_USABLE_FRACTION
        hbm = op.param_bytes
        cmem = 0.0
        if op.op_type == "embedding_lookup":
            # Tables exceed CMEM by orders of magnitude: all HBM.
            hbm += op.bytes_in + op.bytes_out
        elif op.attrs.get("cmem_resident"):
            # Compiler-fused intermediates (e.g. attention scores) are
            # blocked through the on-chip scratchpad and never touch HBM.
            cmem += op.bytes_in + op.bytes_out
        else:
            for chunk in (op.bytes_in, op.bytes_out):
                if chunk <= cmem_budget:
                    cmem += chunk
                else:
                    hbm += chunk
        return {"hbm": hbm, "cmem": cmem}

    def time_op(self, op: OpNode) -> OpTiming:
        """Roofline time for a single operator."""
        hw = self.hw
        compute_time = 0.0
        if op.flops > 0:
            rate = peak_compute_rate(op, hw)
            compute_time = op.flops / rate if rate > 0 else float("inf")
        split = self._memory_split(op)
        memory_time = split["hbm"] / hw.hbm_bandwidth + split["cmem"] / hw.cmem_bandwidth
        network_time = op.network_bytes / hw.ici_bandwidth if op.network_bytes else 0.0
        body = max(compute_time, memory_time, network_time)
        total = body + hw.op_overhead_s
        if body <= hw.op_overhead_s:
            bound = "overhead"
        elif body == compute_time:
            bound = "compute"
        elif body == memory_time:
            bound = "memory"
        else:
            bound = "network"
        return OpTiming(
            name=op.name,
            op_type=op.op_type,
            time_s=total,
            compute_time_s=compute_time,
            memory_time_s=memory_time,
            network_time_s=network_time,
            flops=op.flops,
            hbm_bytes=split["hbm"],
            cmem_bytes=split["cmem"],
            bound=bound,
        )

    def simulate(self, graph: OpGraph) -> SimulationResult:
        """Simulate ``graph`` end to end.

        ``total_time_s`` is the critical-path time (parallel branches
        overlap — e.g. a DLRM's embedding pipeline vs. its bottom MLP);
        ``serial_time_s`` is the sum of all op times, an upper bound
        used for utilization bookkeeping.
        """
        if self.run_compiler_passes:
            from ..graph.passes import optimize

            graph = optimize(graph)
        # One walk in graph order, each total accumulated with ``+=``, not
        # ``sum()``: Python 3.12's ``sum`` compensates float rounding, and
        # the pinned results are plain left-to-right additions.
        result = SimulationResult(graph_name=graph.name, hardware=self.hw.name)
        for op in graph.nodes():
            timing = result.op_timings[op.name] = self.time_op(op)
            result.serial_time_s += timing.time_s
            result.total_flops += timing.flops
            result.hbm_bytes += timing.hbm_bytes
            result.cmem_bytes += timing.cmem_bytes
            result.network_bytes += op.network_bytes
            result.param_bytes += op.param_bytes
            if op.unit == UNIT_MXU:
                result.mxu_busy_s += timing.compute_time_s
            elif op.unit not in (UNIT_MEMORY, UNIT_NETWORK):
                result.vpu_busy_s += timing.compute_time_s
        weights = {name: timing.time_s for name, timing in result.op_timings.items()}
        result.critical_path = graph.critical_path(weights)
        for name in result.critical_path:
            result.total_time_s += weights[name]
        return result


def simulate(graph: OpGraph, hw: HardwareConfig) -> SimulationResult:
    """Convenience wrapper: simulate ``graph`` on ``hw``."""
    return PerformanceSimulator(hw).simulate(graph)
