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
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..graph.ir import OpGraph
from ..hardware.config import HardwareConfig, TPU_V4, TPU_V4I
from ..hardware.simulator import PerformanceSimulator
from ..hardware.testbed import HardwareTestbed
from ..searchspace.base import Architecture
from .dlrm import DlrmModelSpec, apply_architecture, build_graph, num_params

EMBEDDING_DTYPE_BYTES = 4.0
SERVING_BATCH = 128

#: The metrics a harness prices, one head each: the training graph on
#: the training hardware, the serving graph on the serving hardware,
#: and the analytic parameter footprint.
HEADS = ("train_step_time", "serving_latency", "model_size")
TRAIN, SERVE, SIZE = HEADS


class SimulatorPricing:
    """A search's ``performance_fn`` over exactly ``metrics`` of a harness.

    Implements :class:`~repro.core.eval_runtime.BatchPerformanceFn`, so
    the evaluation runtime prices a whole shard's misses in one
    :meth:`TimingHarness.price` call.
    """

    def __init__(self, harness: "TimingHarness", metrics: Sequence[str]):
        harness.price_lowered((), metrics)  # an unknown name fails here, not at a shard
        self.harness = harness
        self.metrics = tuple(metrics)

    def __call__(self, arch: Architecture) -> Dict[str, float]:
        return self.harness.price([arch], self.metrics)[0]

    def price_batch(self, archs: Sequence[Architecture]) -> List[Dict[str, float]]:
        return self.harness.price(archs, self.metrics)


class TimingHarness:
    """Times one search space's candidates for training and serving.

    A space plugs in its lowering — :meth:`spec_of` (architecture to
    concrete candidate; the architecture itself where the graph builder
    reads decisions directly), ``train_graph`` and ``serve_graph``
    (candidate to the op graph of that head) — and a ``num_params`` over
    the same candidate.  Every method lowers its candidate once and
    builds only the graphs it times.  The callables are module-level
    functions or ``partial``s of them, so a harness pickles.
    """

    def __init__(
        self,
        train_graph: Callable[[Any], OpGraph],
        serve_graph: Callable[[Any], OpGraph],
        num_params: Callable[[Any], float],
        dtype_bytes: float,
        train_hw: HardwareConfig = TPU_V4,
        serve_hw: HardwareConfig = TPU_V4I,
        seed: int = 0,
    ):
        self.train_hw = train_hw
        self.serve_hw = serve_hw
        #: timing head -> (candidate's graph of that head, its simulator)
        self._timed = {
            TRAIN: (train_graph, PerformanceSimulator(train_hw)),
            SERVE: (serve_graph, PerformanceSimulator(serve_hw)),
        }
        self._num_params = num_params
        self._dtype_bytes = dtype_bytes
        self._train_bed = HardwareTestbed(train_hw, seed=seed)
        self._serve_bed = HardwareTestbed(serve_hw, seed=seed + 1)

    # ------------------------------------------------------------------
    def spec_of(self, arch: Architecture) -> Any:
        """Lower an architecture to its concrete candidate."""
        return arch

    def price(
        self, archs: Sequence[Architecture], metrics: Sequence[str] = HEADS
    ) -> List[Dict[str, float]]:
        """``metrics`` (of :data:`HEADS`) of every architecture, from the
        clean simulator; each architecture is lowered once."""
        return self.price_lowered([self.spec_of(arch) for arch in archs], metrics)

    def price_lowered(
        self, specs: Sequence[Any], metrics: Sequence[str] = HEADS
    ) -> List[Dict[str, float]]:
        """:meth:`price` of candidates :meth:`spec_of` has lowered already.

        Only the graphs the asked-for heads read are built, and a timing
        head is one array program over all the candidates
        (``PerformanceSimulator.simulate_many``).  A name no head prices
        is a ``ValueError``.
        """
        unknown = sorted(set(metrics) - set(HEADS))
        if unknown:
            raise ValueError(f"unknown metric(s) {unknown}; a harness prices {HEADS}")
        columns: Dict[str, List[float]] = {}
        for head in HEADS:
            if head not in metrics:
                continue
            if head == SIZE:
                columns[head] = [self._num_params(spec) * self._dtype_bytes for spec in specs]
            else:
                build, simulator = self._timed[head]
                results = simulator.simulate_many([build(spec) for spec in specs])
                columns[head] = [result.total_time_s for result in results]
        return [
            {head: column[i] for head, column in columns.items()}
            for i in range(len(specs))
        ]

    def _graphs(self, arch: Architecture) -> Tuple[OpGraph, OpGraph]:
        spec = self.spec_of(arch)
        return self._timed[TRAIN][0](spec), self._timed[SERVE][0](spec)

    # ------------------------------------------------------------------
    def simulate(self, arch: Architecture) -> Tuple[float, float]:
        """(train_step_time, serving_latency) from the clean simulator."""
        metrics = self.price([arch], (TRAIN, SERVE))[0]
        return metrics[TRAIN], metrics[SERVE]

    def measure(self, arch: Architecture) -> Tuple[float, float]:
        """(train_step_time, serving_latency): one noisy measurement of
        each graph on its hardware testbed."""
        train_graph, serve_graph = self._graphs(arch)
        return self._train_bed.measure_time(train_graph), self._serve_bed.measure_time(serve_graph)

    def measure_deterministic(self, arch: Architecture) -> Tuple[float, float]:
        """Noise-free testbed times (for evaluation sweeps)."""
        train_graph, serve_graph = self._graphs(arch)
        return (
            self._train_bed.deterministic_time(train_graph),
            self._serve_bed.deterministic_time(serve_graph),
        )

    def model_size(self, arch: Architecture) -> float:
        """Serving memory footprint in bytes (the analytical size head)."""
        return self.price([arch], (SIZE,))[0][SIZE]

    # ------------------------------------------------------------------
    def pricing(self, metrics: Sequence[str] = HEADS) -> SimulatorPricing:
        """A ``performance_fn`` for a search whose objectives read only
        ``metrics``; a name no head prices is a ``ValueError`` here."""
        return SimulatorPricing(self, metrics)

    def metrics_from_simulator(self, arch: Architecture) -> Dict[str, float]:
        """A performance_fn for searches, backed by the simulator: all
        three heads of one candidate."""
        return self.price([arch])[0]


def _dlrm_serving_graph(serving_batch: int, spec: DlrmModelSpec) -> OpGraph:
    return build_graph(
        replace(spec, name=spec.name + "_serving", batch=serving_batch, distributed=False)
    )


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
            build_graph,
            partial(_dlrm_serving_graph, serving_batch),
            num_params,
            EMBEDDING_DTYPE_BYTES,
            train_hw,
            serve_hw,
            seed,
        )

    def spec_of(self, arch: Architecture) -> DlrmModelSpec:
        """Lower an architecture to a concrete model spec."""
        return apply_architecture(self.baseline, arch)
