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

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..graph.ir import OpGraph
from .config import HardwareConfig
from .simulator import PerformanceSimulator, SimulationResult


class MeasurementError(RuntimeError):
    """A hardware measurement failed after exhausting its retries."""


class MeasurementTimeout(MeasurementError):
    """One measurement attempt exceeded its per-attempt deadline."""


@dataclass(frozen=True)
class MeasurementPolicy:
    """Retry/timeout policy for on-hardware measurements.

    Real fleets lose measurements to preempted machines and hung
    runs; a measurement is retried up to ``max_attempts`` times, each
    attempt bounded by ``timeout_s`` wall clock (None = unbounded),
    with exponential backoff between attempts.
    """

    max_attempts: int = 3
    timeout_s: Optional[float] = None
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")

    def backoff_for(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        return self.backoff_base_s * self.backoff_factor ** (attempt - 1)


@dataclass(frozen=True)
class Measurement:
    """One successful measurement plus how hard it was to obtain."""

    time_s: float
    attempts: int  #: attempts consumed, including the successful one
    timed_out: int  #: attempts discarded for exceeding the deadline


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
        policy: Optional[MeasurementPolicy] = None,
        clock: Callable[[], float] = time.perf_counter,
        sleep_fn: Callable[[float], None] = time.sleep,
        telemetry: Optional[object] = None,
    ):
        self.hw = hw
        self.calibration = calibration or TestbedCalibration()
        self.policy = policy or MeasurementPolicy()
        self._rng = np.random.default_rng(seed)
        self._simulator = PerformanceSimulator(hw)
        self._clock = clock
        self._sleep = sleep_fn
        #: lifetime retry/timeout counters across all measure() calls
        self.total_retries = 0
        self.total_timeouts = 0
        #: optional shared telemetry; ``testbed.*`` counters are churn
        #: scoped (measurement churn is real work, never rolled back)
        self.telemetry = telemetry

    def deterministic_time(self, graph: OpGraph) -> float:
        """Hardware time without measurement noise (for analysis)."""
        result = self._simulator.simulate(graph)
        return self._systematic(result, len(graph))

    def measure_time(self, graph: OpGraph) -> float:
        """One noisy wall-clock measurement, seconds."""
        noise = float(np.exp(self._rng.normal(0.0, self.calibration.noise_sigma)))
        return self.deterministic_time(graph) * noise

    def measure(self, graph: OpGraph) -> Measurement:
        """One measurement under the retry/timeout policy.

        Each attempt is timed against ``policy.timeout_s``; transient
        attempt failures and timeouts are discarded and retried (with
        backoff) up to ``policy.max_attempts``, after which
        :class:`MeasurementError` carries the last failure.  An attempt
        that raises a *non-retryable* error — a deterministic bug such
        as a ``TypeError`` from a bad config (see
        :mod:`repro.runtime.errors`) — re-raises immediately instead of
        failing identically ``max_attempts`` times.  The result surfaces
        how many attempts and timeouts the measurement cost.
        """
        # Deferred import: hardware must stay importable without the
        # runtime package's transitive (core/search) dependencies.
        from ..runtime.errors import is_retryable

        policy = self.policy
        telemetry = self.telemetry
        timed_out = 0
        last_error: Optional[Exception] = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self.total_retries += 1
                if telemetry is not None:
                    telemetry.counter("testbed.retries").inc()
                backoff = policy.backoff_for(attempt - 1)
                if backoff > 0:
                    self._sleep(backoff)
            started = self._clock()
            try:
                value = self.measure_time(graph)
            except Exception as error:  # noqa: BLE001 - classified below
                retryable = is_retryable(error)
                if telemetry is not None:
                    telemetry.counter("testbed.failures").inc(
                        error=type(error).__name__,
                        retryable=str(retryable).lower(),
                    )
                if not retryable:
                    raise
                last_error = error
                continue
            elapsed = self._clock() - started
            if policy.timeout_s is not None and elapsed > policy.timeout_s:
                timed_out += 1
                self.total_timeouts += 1
                if telemetry is not None:
                    telemetry.counter("testbed.timeouts").inc()
                last_error = MeasurementTimeout(
                    f"measurement attempt {attempt} took {elapsed:.3f}s "
                    f"(deadline {policy.timeout_s:.3f}s)"
                )
                continue
            if telemetry is not None:
                telemetry.counter("testbed.measurements").inc()
            return Measurement(time_s=value, attempts=attempt, timed_out=timed_out)
        if telemetry is not None:
            telemetry.counter("testbed.exhausted").inc()
        raise MeasurementError(
            f"measurement failed after {policy.max_attempts} attempts "
            f"({timed_out} timed out)"
        ) from last_error

    # ------------------------------------------------------------------
    def _systematic(self, result: SimulationResult, num_ops: int) -> float:
        cal = self.calibration
        base = result.total_time_s
        # Express the super-linear term relative to a 1 ms anchor so the
        # exponent is scale-free across model sizes.
        anchor = 1e-3
        shaped = anchor * (base / anchor) ** cal.exponent
        return cal.scale * shaped + num_ops * cal.per_op_overhead_s
