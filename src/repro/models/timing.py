"""Timing harnesses: architecture -> model spec -> simulated/measured time.

These tie the search spaces to the hardware substrate: an architecture
sampled by the RL controller is lowered to a concrete model spec, built
into an op graph, and timed either on the clean simulator (pre-training
data for the performance model) or on the hardware testbed (the stand-in
for real-TPU measurement used for fine-tuning and final evaluation).
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Callable, Dict, Tuple

from ..graph.ir import OpGraph
from ..hardware.config import HardwareConfig, TPU_V4, TPU_V4I
from ..hardware.simulator import PerformanceSimulator
from ..hardware.testbed import HardwareTestbed
from ..searchspace.base import Architecture
from .dlrm import DlrmModelSpec, apply_architecture, build_graph, num_params

EMBEDDING_DTYPE_BYTES = 4.0
SERVING_BATCH = 128

Graphs = Tuple[OpGraph, OpGraph]


class TimingHarness:
    """Times one search space's candidates for training and serving.

    A space plugs in its lowering — :meth:`spec_of` (architecture to
    concrete candidate; the architecture itself where the graph builder
    reads decisions directly) and ``graphs`` (candidate to its
    ``(training, serving)`` op graphs) — and a ``num_params`` over the
    same candidate.  Every method lowers its candidate once.  The
    callables are module-level functions or ``partial``s of them, so a
    harness pickles.
    """

    def __init__(
        self,
        graphs: Callable[[Any], Graphs],
        num_params: Callable[[Any], float],
        dtype_bytes: float,
        train_hw: HardwareConfig = TPU_V4,
        serve_hw: HardwareConfig = TPU_V4I,
        seed: int = 0,
    ):
        self.train_hw = train_hw
        self.serve_hw = serve_hw
        self._graphs = graphs
        self._num_params = num_params
        self._dtype_bytes = dtype_bytes
        self._train_sim = PerformanceSimulator(train_hw)
        self._serve_sim = PerformanceSimulator(serve_hw)
        self._train_bed = HardwareTestbed(train_hw, seed=seed)
        self._serve_bed = HardwareTestbed(serve_hw, seed=seed + 1)

    # ------------------------------------------------------------------
    def spec_of(self, arch: Architecture) -> Any:
        """Lower an architecture to its concrete candidate."""
        return arch

    def _simulate_spec(self, spec: Any) -> Tuple[float, float]:
        train_graph, serve_graph = self._graphs(spec)
        return (
            self._train_sim.simulate(train_graph).total_time_s,
            self._serve_sim.simulate(serve_graph).total_time_s,
        )

    # ------------------------------------------------------------------
    def simulate(self, arch: Architecture) -> Tuple[float, float]:
        """(train_step_time, serving_latency) from the clean simulator."""
        return self._simulate_spec(self.spec_of(arch))

    def measure(self, arch: Architecture) -> Tuple[float, float]:
        """(train_step_time, serving_latency) from the hardware testbed.

        Measurements go through the testbeds' retry/timeout policy;
        retries spent on flaky attempts accumulate on
        :attr:`measurement_retries`.
        """
        train_graph, serve_graph = self._graphs(self.spec_of(arch))
        return (
            self._train_bed.measure(train_graph).time_s,
            self._serve_bed.measure(serve_graph).time_s,
        )

    @property
    def measurement_retries(self) -> int:
        """Total measurement retries across both testbeds."""
        return self._train_bed.total_retries + self._serve_bed.total_retries

    @property
    def measurement_timeouts(self) -> int:
        """Total timed-out measurement attempts across both testbeds."""
        return self._train_bed.total_timeouts + self._serve_bed.total_timeouts

    def measure_deterministic(self, arch: Architecture) -> Tuple[float, float]:
        """Noise-free testbed times (for evaluation sweeps)."""
        train_graph, serve_graph = self._graphs(self.spec_of(arch))
        return (
            self._train_bed.deterministic_time(train_graph),
            self._serve_bed.deterministic_time(serve_graph),
        )

    def model_size(self, arch: Architecture) -> float:
        """Serving memory footprint in bytes (the analytical size head)."""
        return self._num_params(self.spec_of(arch)) * self._dtype_bytes

    # ------------------------------------------------------------------
    def metrics_from_simulator(self, arch: Architecture) -> Dict[str, float]:
        """A performance_fn for searches, backed by the simulator."""
        spec = self.spec_of(arch)  # lowered once for both timing and size
        train_time, serve_time = self._simulate_spec(spec)
        return {
            "train_step_time": train_time,
            "serving_latency": serve_time,
            "model_size": self._num_params(spec) * self._dtype_bytes,
        }


def batched_graphs(
    build: Callable[..., OpGraph],
    baseline: Any,
    train_batch: int,
    serve_batch: int,
    arch: Architecture,
) -> Graphs:
    """``graphs`` of a space whose builder reads the architecture
    directly and whose two graphs differ in batch size only."""
    return (
        build(baseline, arch, batch=train_batch),
        build(baseline, arch, batch=serve_batch),
    )


def _dlrm_graphs(serving_batch: int, spec: DlrmModelSpec) -> Graphs:
    serving_spec = replace(
        spec, name=spec.name + "_serving", batch=serving_batch, distributed=False
    )
    return build_graph(spec), build_graph(serving_spec)


class DlrmTimingHarness(TimingHarness):
    """Times DLRM architectures for training and serving."""

    def __init__(
        self,
        baseline: DlrmModelSpec,
        train_hw: HardwareConfig = TPU_V4,
        serve_hw: HardwareConfig = TPU_V4I,
        serving_batch: int = SERVING_BATCH,
        seed: int = 0,
    ):
        self.baseline = baseline
        self.serving_batch = serving_batch
        super().__init__(
            partial(_dlrm_graphs, serving_batch),
            num_params,
            EMBEDDING_DTYPE_BYTES,
            train_hw,
            serve_hw,
            seed,
        )

    def spec_of(self, arch: Architecture) -> DlrmModelSpec:
        """Lower an architecture to a concrete model spec."""
        return apply_architecture(self.baseline, arch)
