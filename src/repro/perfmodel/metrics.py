"""Accuracy metrics for the performance model (Table 1 uses NRMSE)."""

from __future__ import annotations

import numpy as np


def rmse(predictions: np.ndarray, targets: np.ndarray) -> float:
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise ValueError("prediction/target shapes differ")
    if predictions.size == 0:
        raise ValueError("empty inputs")
    return float(np.sqrt(np.mean((predictions - targets) ** 2)))


def nrmse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Root-mean-square error normalized by the mean target magnitude."""
    targets = np.asarray(targets, dtype=np.float64)
    denom = float(np.mean(np.abs(targets)))
    if denom == 0:
        raise ValueError("targets have zero mean magnitude")
    return rmse(predictions, targets) / denom
