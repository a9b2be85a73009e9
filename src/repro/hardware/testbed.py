"""Hardware testbed — the stand-in for real-accelerator measurement.

The paper fine-tunes its performance model on ~20 measurements taken on
real TPUs/GPUs (Section 6.2.2).  We have no TPUs, so the testbed wraps
the analytical simulator and layers on the effects a real machine shows
but a clean roofline model misses:

* a systematic calibration scale (real runtimes are slower than the
  analytic bound — compiler inefficiencies, pipeline bubbles);
* a mild super-linear term (large models suffer more from memory
  pressure and scheduling);
* per-op launch/fusion overhead beyond the simulator's constant;
* run-to-run measurement noise.

Because the gap is systematic-plus-smooth, a handful of measurements is
enough to fine-tune the pretrained performance model onto it — exactly
the property Table 1 of the paper demonstrates (NRMSE 14.7%–42.9%
before fine-tuning, 1.05%–3.08% after).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graph.ir import OpGraph
from .config import HardwareConfig
from .simulator import PerformanceSimulator, SimulationResult


@dataclass(frozen=True)
class TestbedCalibration:
    """Systematic simulator-vs-hardware gap parameters."""

    __test__ = False  # not a pytest test class despite the name

    scale: float = 1.22  # multiplicative optimism of the simulator
    exponent: float = 1.03  # super-linear growth with runtime
    per_op_overhead_s: float = 2.5e-6  # extra launch overhead per op
    noise_sigma: float = 0.01  # lognormal run-to-run noise


class HardwareTestbed:
    """Measures graphs "on hardware" (simulator + systematic gap + noise)."""

    def __init__(
        self,
        hw: HardwareConfig,
        calibration: Optional[TestbedCalibration] = None,
        seed: int = 0,
    ):
        self.hw = hw
        self.calibration = calibration or TestbedCalibration()
        self._rng = np.random.default_rng(seed)
        self._simulator = PerformanceSimulator(hw)

    def deterministic_time(self, graph: OpGraph) -> float:
        """Hardware time without measurement noise (for analysis)."""
        result = self._simulator.simulate(graph)
        return self._systematic(result, len(graph))

    def measure_time(self, graph: OpGraph) -> float:
        """One noisy wall-clock measurement, seconds."""
        noise = float(np.exp(self._rng.normal(0.0, self.calibration.noise_sigma)))
        return self.deterministic_time(graph) * noise

    # ------------------------------------------------------------------
    def _systematic(self, result: SimulationResult, num_ops: int) -> float:
        cal = self.calibration
        base = result.total_time_s
        # Express the super-linear term relative to a 1 ms anchor so the
        # exponent is scale-free across model sizes.
        anchor = 1e-3
        shaped = anchor * (base / anchor) ** cal.exponent
        return cal.scale * shaped + num_ops * cal.per_op_overhead_s
