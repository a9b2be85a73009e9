"""Two-phase hybrid performance model (Section 6.2 of the paper)."""

from .features import ArchitectureEncoder
from .metrics import nrmse, rmse
from .model import PerformanceModel
from .training import PhaseReport, TwoPhaseConfig, TwoPhaseTrainer

__all__ = [
    "ArchitectureEncoder",
    "PerformanceModel",
    "PhaseReport",
    "TwoPhaseConfig",
    "TwoPhaseTrainer",
    "nrmse",
    "rmse",
]
