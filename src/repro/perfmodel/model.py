"""Dual-head MLP performance model (Section 6.2.1).

The model is "an MLP with variable layers and neurons per layer" whose
inputs are architecture hyper-parameters and whose outputs are
performance metrics; it "has dual heads, to predict both training and
serving performance", plus "an analytical objective output to predict
model size" that needs no learning.

Predictions are made in log-time space: hardware runtimes span orders
of magnitude across a search space, and the relative (percentage)
errors Table 1 reports correspond to additive errors in log space.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..nn import MLP, Tensor, mse
from ..nn.tensor import no_grad
from ..searchspace.base import Architecture
from .features import ArchitectureEncoder

#: Output head order of the MLP.
HEAD_TRAIN = 0
HEAD_SERVE = 1

SizeFn = Callable[[Architecture], float]


class PerformanceModel:
    """MLP over architecture features with train/serve heads."""

    def __init__(
        self,
        encoder: ArchitectureEncoder,
        hidden_sizes: Sequence[int] = (512, 512),
        size_fn: Optional[SizeFn] = None,
        seed: int = 0,
    ):
        self.encoder = encoder
        self.size_fn = size_fn
        rng = np.random.default_rng(seed)
        self.mlp = MLP(encoder.num_features, hidden_sizes, 2, rng)
        # float64, unlike the supernets: the model is fit to sub-percent
        # NRMSE, which float32 does not reach (Table 1's pretraining fit
        # reads 2.2% in float32, 0.85% in float64).  The layers build
        # float32; the parameters are rebuilt in float64 and everything
        # downstream follows them.
        for param in self.mlp.parameters():
            param.data = param.data.astype(np.float64)
        # Log-target normalization, fixed during pre-training so the MLP
        # regresses a zero-mean unit-variance quantity.
        self.log_mean = np.zeros(2)
        self.log_std = np.ones(2)

    # ------------------------------------------------------------------
    def set_normalization(self, log_mean: np.ndarray, log_std: np.ndarray) -> None:
        """Fix the output normalization (called once, at pre-training)."""
        log_std = np.asarray(log_std, dtype=np.float64)
        if np.any(log_std <= 0):
            log_std = np.maximum(log_std, 1e-6)
        self.log_mean = np.asarray(log_mean, dtype=np.float64)
        self.log_std = log_std

    def normalize_targets(self, log_times: np.ndarray) -> np.ndarray:
        return (log_times - self.log_mean) / self.log_std

    def forward(self, features: np.ndarray) -> Tensor:
        """Normalized log-time predictions, shape ``(batch, 2)``."""
        return self.mlp(Tensor(np.asarray(features, dtype=self.mlp.head.weight.data.dtype)))

    def training_loss(self, features: np.ndarray, targets: np.ndarray) -> Tensor:
        """MSE of the MLP against normalized log-time ``targets``."""
        return mse(self.forward(features), targets)

    def predict_log_times(self, archs: Sequence[Architecture]) -> np.ndarray:
        features = self.encoder.encode_batch(archs)
        with no_grad():
            return self.forward(features).data * self.log_std + self.log_mean

    def predict(self, arch: Architecture) -> Dict[str, float]:
        """Performance metrics of one architecture.

        Returns ``train_step_time`` and ``serving_latency`` in seconds
        and, when a size function was provided, ``model_size`` in bytes
        (computed analytically, exactly as the paper's size head).
        """
        return self.predict_many([arch])[0]

    def predict_many(
        self, archs: Sequence[Architecture]
    ) -> List[Dict[str, float]]:
        """Metric mappings for a whole shard, from one MLP forward.

        All architectures are encoded in one ``encode_batch`` and priced
        in a single forward pass — the O(ms)-per-shard pricing the
        search hot path relies on.  Per-arch output matches
        :meth:`predict`.
        """
        log_times = self.predict_log_times(archs)
        results: List[Dict[str, float]] = []
        for arch, row in zip(archs, log_times):
            metrics = {
                "train_step_time": float(np.exp(row[HEAD_TRAIN])),
                "serving_latency": float(np.exp(row[HEAD_SERVE])),
            }
            if self.size_fn is not None:
                metrics["model_size"] = float(self.size_fn(arch))
            results.append(metrics)
        return results

    # The model itself is a BatchPerformanceFn: pass it as a search's
    # ``performance_fn`` and the evaluation runtime prices every cache
    # miss of a shard through one batched forward.
    __call__ = predict
    price_batch = predict_many

    def predict_times(self, archs: Sequence[Architecture]) -> np.ndarray:
        """Vectorized ``(batch, 2)`` matrix of (train, serve) seconds."""
        return np.exp(self.predict_log_times(archs))

    def parameters(self):
        return self.mlp.parameters()
