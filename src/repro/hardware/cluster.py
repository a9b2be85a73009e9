"""Multi-chip cluster model: data-parallel training at pod scale.

The paper's targets train on 128 TPUv4 chips (Table 2) and the search
itself fans out over "hundreds of accelerators".  This module models
the data-parallel step time of a model on an ``N``-chip slice:

``step(N) = max(compute_step(per-chip batch), allreduce(gradients))``

with a ring all-reduce moving ``2 (N-1)/N`` of the gradient bytes over
each chip's interconnect.  Compute and communication overlap (gradient
buckets reduce while later layers still compute), hence the ``max``.
The resulting scaling curves expose the usual cliff: small per-chip
batches stop amortizing the all-reduce and scaling efficiency decays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from ..graph.ir import OpGraph
from .config import HardwareConfig
from .simulator import PerformanceSimulator

#: Builds the per-chip graph for a given per-chip batch size.
GraphBuilder = Callable[[int], OpGraph]


@dataclass(frozen=True)
class ClusterStep:
    """Data-parallel step accounting on one cluster size."""

    num_chips: int
    per_chip_batch: int
    compute_time_s: float
    allreduce_time_s: float

    @property
    def step_time_s(self) -> float:
        """Compute and gradient all-reduce overlap: the slower governs."""
        return max(self.compute_time_s, self.allreduce_time_s)

    @property
    def examples_per_second(self) -> float:
        return self.num_chips * self.per_chip_batch / self.step_time_s

    @property
    def communication_bound(self) -> bool:
        return self.allreduce_time_s > self.compute_time_s


def allreduce_time(param_bytes: float, num_chips: int, hw: HardwareConfig) -> float:
    """Ring all-reduce time for ``param_bytes`` of gradients."""
    if num_chips < 1:
        raise ValueError("num_chips must be >= 1")
    if num_chips == 1:
        return 0.0
    moved = 2.0 * (num_chips - 1) / num_chips * param_bytes
    return moved / hw.ici_bandwidth


class ClusterModel:
    """Times data-parallel training of one model on N-chip slices."""

    def __init__(self, hw: HardwareConfig, build_graph: GraphBuilder):
        self.hw = hw
        self.build_graph = build_graph
        self._simulator = PerformanceSimulator(hw)

    def step(self, num_chips: int, global_batch: int) -> ClusterStep:
        """One training step of ``global_batch`` split over ``num_chips``."""
        if num_chips < 1 or global_batch < num_chips:
            raise ValueError("need at least one example per chip")
        per_chip = global_batch // num_chips
        graph = self.build_graph(per_chip)
        result = self._simulator.simulate(graph)
        # Backward pass ~ 2x the forward compute (activations + weights).
        compute = 3.0 * result.total_time_s
        comm = allreduce_time(result.param_bytes, num_chips, self.hw)
        return ClusterStep(
            num_chips=num_chips,
            per_chip_batch=per_chip,
            compute_time_s=compute,
            allreduce_time_s=comm,
        )

    def scaling_efficiency(
        self, chip_counts: Sequence[int], global_batch: int
    ) -> List[float]:
        """Throughput relative to perfect linear scaling from the
        smallest slice in ``chip_counts``."""
        counts = sorted(set(chip_counts))
        if not counts:
            raise ValueError("chip_counts must be non-empty")
        steps = {c: self.step(c, global_batch) for c in counts}
        base = steps[counts[0]]
        base_rate = base.examples_per_second / base.num_chips
        return [
            steps[c].examples_per_second / (c * base_rate) for c in counts
        ]
