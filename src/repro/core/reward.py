"""Multi-objective reward functions (Section 6.1 of the paper).

The paper's contribution is the *single-sided ReLU reward*:

``R(alpha) = Q(alpha) + sum_i beta_i * relu(T_i(alpha)/T_i0 - 1)``

with ``beta_i < 0``: candidates that exceed a performance target are
penalized linearly, candidates at or under the target are not penalized
at all — so the search is free to find over-achieving models.  The
baseline it improves on is TuNAS' absolute-value reward

``R(alpha) = Q(alpha) + sum_i beta_i * |T_i(alpha)/T_i0 - 1|``

which also penalizes candidates that are *better* than target.  With a
single performance objective the two behave the same (Section 6.1);
with multiple objectives the ReLU reward dominates (Figure 5), which
``benchmarks/bench_fig5_reward.py`` reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence


@dataclass(frozen=True)
class PerformanceObjective:
    """One performance target ``T_i0`` with its penalty weight ``beta_i``.

    Attributes:
        metric: key into the candidate's performance-metric mapping
            (e.g. ``"train_step_time"``, ``"serving_latency"``,
            ``"model_size"``).
        target: the launch-constraint value ``T_i0`` (same units as the
            metric; must be positive — the reward normalizes by it).
        beta: finite negative scalar controlling the penalty strength.
    """

    metric: str
    target: float
    beta: float = -1.0

    def __post_init__(self) -> None:
        if self.target <= 0:
            raise ValueError(f"target for {self.metric!r} must be positive")
        if not self.beta < 0:
            raise ValueError(f"beta for {self.metric!r} must be negative")

    def overshoot(self, metrics: Mapping[str, float]) -> float:
        """Normalized deviation ``T_i/T_i0 - 1`` of a candidate."""
        try:
            value = metrics[self.metric]
        except KeyError:
            raise KeyError(
                f"candidate metrics missing objective {self.metric!r}"
            ) from None
        return value / self.target - 1.0


RewardFn = Callable[[float, Mapping[str, float]], float]


class RewardFunction:
    """A reward combining quality with a set of performance objectives."""

    def __init__(self, objectives: Sequence[PerformanceObjective], kind: str = "relu"):
        if kind not in ("relu", "absolute"):
            raise ValueError("kind must be 'relu' or 'absolute'")
        self.objectives = tuple(objectives)
        self.kind = kind

    def __call__(self, quality: float, metrics: Mapping[str, float]) -> float:
        """Reward of a candidate with ``quality`` and performance ``metrics``."""
        penalty = 0.0
        for objective in self.objectives:
            deviation = objective.overshoot(metrics)
            if self.kind == "relu":
                term = max(0.0, deviation)
            else:
                term = abs(deviation)
            penalty += objective.beta * term
        return quality + penalty


def relu_reward(objectives: Sequence[PerformanceObjective]) -> RewardFunction:
    """The paper's single-sided ReLU reward (Equation 1)."""
    return RewardFunction(objectives, kind="relu")


def absolute_reward(objectives: Sequence[PerformanceObjective]) -> RewardFunction:
    """TuNAS' absolute-value reward (Equation 2), the baseline."""
    return RewardFunction(objectives, kind="absolute")
