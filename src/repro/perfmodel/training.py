"""Two-phase training of the performance model (Section 6.2.2 / Table 1).

Phase 1 — **pre-training**: sample many architectures from the search
space, simulate each on the (cheap, CPU-only) performance simulator,
and fit the MLP to the simulated log-times.  Phase 2 — **fine-tuning**:
measure O(20) candidates on the hardware testbed and fine-tune the same
MLP, at a lower learning rate, onto real measurements.  Because the
simulator-vs-hardware gap is systematic and smooth, ~20 points suffice
to close it — the effect Table 1 quantifies (NRMSE 14.7%-42.9% before
fine-tuning, 1.05%-3.08% after).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Adam
from ..searchspace.base import Architecture, SearchSpace
from .metrics import nrmse
from .model import PerformanceModel

#: (train_time_s, serve_time_s) of one architecture.
TimePair = Tuple[float, float]
TimingFn = Callable[[Architecture], TimePair]


@dataclass
class PhaseReport:
    """Fit statistics of one training phase."""

    num_samples: int
    epochs: int
    final_loss: float
    nrmse_train_head: float
    nrmse_serve_head: float


@dataclass(frozen=True)
class TwoPhaseConfig:
    """Hyper-parameters of the two-phase training procedure.

    The defaults scale the paper's recipe down to CPU budgets: the
    paper pre-trains on one million simulator samples; the sample count
    here is a constructor argument of :meth:`TwoPhaseTrainer.pretrain`.
    """

    pretrain_epochs: int = 60
    pretrain_lr: float = 1e-3
    finetune_epochs: int = 200
    finetune_lr: float = 1e-4

    def __post_init__(self) -> None:
        if self.pretrain_epochs < 1 or self.finetune_epochs < 1:
            raise ValueError("epoch counts must be >= 1")
        if self.pretrain_lr <= 0 or self.finetune_lr <= 0:
            raise ValueError("learning rates must be positive")


class TwoPhaseTrainer:
    """Orchestrates pretrain-on-simulator then finetune-on-hardware."""

    def __init__(
        self,
        model: PerformanceModel,
        space: SearchSpace,
        simulate_fn: TimingFn,
        measure_fn: TimingFn,
        config: Optional[TwoPhaseConfig] = None,
        seed: int = 0,
    ):
        self.model = model
        self.space = space
        self.simulate_fn = simulate_fn
        self.measure_fn = measure_fn
        self.config = config if config is not None else TwoPhaseConfig()
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def sample_dataset(
        self, count: int, timing_fn: TimingFn
    ) -> Tuple[List[Architecture], np.ndarray]:
        """Sample ``count`` architectures and collect their timings."""
        archs = [self.space.sample(self._rng) for _ in range(count)]
        times = np.array([timing_fn(arch) for arch in archs], dtype=np.float64)
        return archs, times

    def pretrain(self, num_samples: int) -> PhaseReport:
        """Phase 1: fit the MLP to simulator timings."""
        archs, times = self.sample_dataset(num_samples, self.simulate_fn)
        log_times = np.log(times)
        self.model.set_normalization(log_times.mean(axis=0), log_times.std(axis=0))
        return self._fit(
            archs,
            times,
            epochs=self.config.pretrain_epochs,
            lr=self.config.pretrain_lr,
            batch=256,
        )

    def finetune(self, num_samples: int = 20) -> PhaseReport:
        """Phase 2: fine-tune on O(20) hardware measurements.

        The simulator-vs-hardware gap is dominated by a systematic
        log-affine component (calibration scale and mild super-linear
        exponent), so fine-tuning first solves a closed-form per-head
        affine correction of the output layer on the measurements, then
        runs low-learning-rate gradient steps to absorb the remaining
        shape differences.
        """
        archs, times = self.sample_dataset(num_samples, self.measure_fn)
        self._affine_head_correction(archs, times)
        return self._fit(
            archs,
            times,
            epochs=self.config.finetune_epochs,
            lr=self.config.finetune_lr,
            batch=max(4, num_samples),
        )

    def _affine_head_correction(self, archs: Sequence[Architecture], times: np.ndarray) -> None:
        """Least-squares per-head affine recalibration of the output layer."""
        features = self.model.encoder.encode_batch(archs)
        predictions = self.model.forward(features).data  # normalized space
        targets = self.model.normalize_targets(np.log(times))
        head = self.model.mlp.head
        for column in range(predictions.shape[1]):
            x = predictions[:, column]
            y = targets[:, column]
            design = np.stack([x, np.ones_like(x)], axis=1)
            (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
            head.weight.data[:, column] *= slope
            if head.bias is not None:
                head.bias.data[column] = slope * head.bias.data[column] + intercept

    def evaluate(self, count: int, timing_fn: Optional[TimingFn] = None) -> Tuple[float, float]:
        """NRMSE of both heads against ``timing_fn`` (default: hardware)."""
        timing_fn = timing_fn or self.measure_fn
        archs, times = self.sample_dataset(count, timing_fn)
        predicted = self.model.predict_times(archs)
        return (
            nrmse(predicted[:, 0], times[:, 0]),
            nrmse(predicted[:, 1], times[:, 1]),
        )

    # ------------------------------------------------------------------
    def _fit(
        self,
        archs: Sequence[Architecture],
        times: np.ndarray,
        epochs: int,
        lr: float,
        batch: int,
    ) -> PhaseReport:
        features = self.model.encoder.encode_batch(archs)
        log_targets = self.model.normalize_targets(np.log(times))
        optimizer = Adam(self.model.parameters(), lr=lr)
        n = features.shape[0]
        final_loss = float("nan")
        for _ in range(epochs):
            order = self._rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                optimizer.zero_grad()
                loss = self.model.training_loss(features[idx], log_targets[idx])
                loss.backward()
                optimizer.step()
                final_loss = loss.item()
        predicted = np.exp(
            self.model.forward(features).data * self.model.log_std
            + self.model.log_mean
        )
        return PhaseReport(
            num_samples=n,
            epochs=epochs,
            final_loss=final_loss,
            nrmse_train_head=nrmse(predicted[:, 0], times[:, 0]),
            nrmse_serve_head=nrmse(predicted[:, 1], times[:, 1]),
        )
