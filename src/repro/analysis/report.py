"""Search-run reporting: convergence summaries and decision drift.

Production searches are monitored, not babysat; these helpers condense
a :class:`~repro.core.search.SearchResult` into the quantities an
operator checks — reward trend, entropy decay, and which decisions the policy actually moved away from the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.search import SearchResult
from ..searchspace.base import Architecture, SearchSpace
from .tables import format_table


@dataclass(frozen=True)
class ConvergenceSummary:
    """Headline numbers of one search run."""

    steps: int
    batches_used: int
    initial_reward: float
    final_reward: float
    initial_entropy: float
    final_entropy: float

    @property
    def reward_gain(self) -> float:
        return self.final_reward - self.initial_reward

    @property
    def entropy_reduction(self) -> float:
        """Fraction of initial policy entropy resolved by the search."""
        if self.initial_entropy <= 0:
            return 0.0
        return 1.0 - self.final_entropy / self.initial_entropy

    @property
    def converged(self) -> bool:
        """Heuristic: some entropy resolved and reward did not regress."""
        return self.entropy_reduction > 0.05 and self.reward_gain > -1e-9


def summarize(result: SearchResult, window: int = 10) -> ConvergenceSummary:
    """Condense ``result`` using head/tail averaging windows."""
    if not result.history:
        raise ValueError("search result has no history")
    window = max(1, min(window, len(result.history)))
    rewards = result.rewards()
    entropies = result.entropies()
    return ConvergenceSummary(
        steps=len(result.history),
        batches_used=result.batches_used,
        initial_reward=float(rewards[:window].mean()),
        final_reward=float(rewards[-window:].mean()),
        initial_entropy=float(entropies[0]),
        final_entropy=float(entropies[-1]),
    )


def decision_drift(
    space: SearchSpace,
    final: Architecture,
    baseline: Optional[Architecture] = None,
) -> Dict[str, tuple]:
    """Decisions where the searched architecture left the baseline.

    Returns ``{decision: (baseline_value, searched_value)}``.
    """
    baseline = baseline or space.default_architecture()
    return {
        name: (baseline[name], final[name])
        for name in (d.name for d in space.decisions)
        if final[name] != baseline[name]
    }


def format_report(
    space: SearchSpace, result: SearchResult, window: int = 10
) -> str:
    """Human-readable report for one search run."""
    summary = summarize(result, window)
    lines = [
        f"steps: {summary.steps}   fresh batches: {summary.batches_used}",
        f"reward: {summary.initial_reward:.4f} -> {summary.final_reward:.4f} "
        f"({summary.reward_gain:+.4f})",
        f"entropy: {summary.initial_entropy:.2f} -> {summary.final_entropy:.2f} "
        f"({summary.entropy_reduction:.0%} resolved)",
        f"converged: {summary.converged}",
    ]
    drift = decision_drift(space, result.final_architecture)
    if drift:
        lines.append("searched decisions (vs baseline):")
        lines.append(
            format_table(
                ["decision", "baseline", "searched"],
                [[name, str(a), str(b)] for name, (a, b) in sorted(drift.items())],
            )
        )
    else:
        lines.append("searched architecture equals the baseline")
    return "\n".join(lines)
