"""REINFORCE controller over categorical search-space decisions.

The RL algorithm "learns a policy pi, a probability distribution over a
collection of independent multinomial variables.  Each variable
controls a decision of the search space" (Section 4.1).  The policy is
a per-decision logit vector; sampling is independent across decisions;
updates follow REINFORCE with a moving-average reward baseline (the
standard variance reduction TuNAS also uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..searchspace.base import Architecture, SearchSpace


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


class CategoricalPolicy:
    """Independent multinomial distributions, one per decision."""

    def __init__(self, space: SearchSpace):
        self.space = space
        self.logits: List[np.ndarray] = [
            np.zeros(d.num_choices) for d in space.decisions
        ]

    # ------------------------------------------------------------------
    def probabilities(self) -> List[np.ndarray]:
        """Per-decision choice probabilities."""
        return [_softmax(logit) for logit in self.logits]

    def sample(self, rng: np.random.Generator) -> Tuple[Architecture, np.ndarray]:
        """Draw an architecture; returns it with its index vector."""
        return self.sample_batch(rng, 1)[0]

    def sample_batch(
        self, rng: np.random.Generator, count: int
    ) -> List[Tuple[Architecture, np.ndarray]]:
        """Draw ``count`` independent architectures in one vectorized step.

        Consumes the generator stream exactly like ``count`` sequential
        :meth:`sample` calls (one uniform per decision, row-major), so a
        batched search step reproduces the per-core Python loop draw for
        draw given the same seed — only without ``count x decisions``
        round-trips through ``rng.choice``.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        probs = self.probabilities()
        uniforms = rng.random((count, len(probs)))
        columns = []
        for d, p in enumerate(probs):
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            columns.append(np.searchsorted(cdf, uniforms[:, d], side="right"))
        index_matrix = np.stack(columns, axis=1).astype(np.int64)
        return [
            (self.space.architecture_from_indices(row), row) for row in index_matrix
        ]

    def log_prob(self, indices: Sequence[int]) -> float:
        """Log-probability of the architecture encoded by ``indices``."""
        total = 0.0
        for probs, idx in zip(self.probabilities(), indices):
            total += float(np.log(probs[int(idx)] + 1e-12))
        return total

    def entropy(self) -> float:
        """Summed entropy across decisions (search-convergence signal)."""
        total = 0.0
        for probs in self.probabilities():
            total += float(-(probs * np.log(probs + 1e-12)).sum())
        return total

    def most_probable_architecture(self) -> Architecture:
        """Independently pick the argmax of every decision (end of search)."""
        indices = [int(np.argmax(logit)) for logit in self.logits]
        return self.space.architecture_from_indices(indices)

    def state_dict(self) -> dict:
        """Copies of the per-decision logit vectors."""
        return {"logits": [logit.copy() for logit in self.logits]}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        logits = state["logits"]
        if len(logits) != len(self.logits):
            raise ValueError("policy state comes from a different search space")
        for mine, saved in zip(self.logits, logits):
            saved = np.asarray(saved, dtype=mine.dtype)
            if saved.shape != mine.shape:
                raise ValueError("policy state comes from a different search space")
            mine[:] = saved

    # ------------------------------------------------------------------
    def reinforce_update(
        self,
        samples: Sequence[Tuple[np.ndarray, float]],
        learning_rate: float,
        entropy_coef: float = 0.0,
    ) -> None:
        """One cross-shard REINFORCE step.

        ``samples`` is a list of ``(index_vector, advantage)`` pairs —
        one per parallel core — and the gradients are averaged across
        cores before being applied (the paper's cross-shard policy
        update).  The per-decision gradient of ``log pi`` w.r.t. the
        logits is ``onehot(choice) - probs``.

        ``entropy_coef`` adds an entropy bonus to the maximized
        objective, preventing premature convergence when constraint
        penalties dominate the early reward signal.  Both terms are
        computed from one probability snapshot (taken before any logit
        moves) and applied as a single combined step with consistent
        scaling: the shard mean of the per-sample REINFORCE gradients
        plus ``entropy_coef`` times the entropy gradient, all times the
        learning rate.  The entropy bonus is therefore invariant to the
        shard size, exactly like the averaged REINFORCE term.
        """
        if not samples:
            return
        probs = self.probabilities()
        grads = [np.zeros_like(logit) for logit in self.logits]
        for indices, advantage in samples:
            for d, idx in enumerate(indices):
                onehot = np.zeros_like(grads[d])
                onehot[int(idx)] = 1.0
                grads[d] += advantage * (onehot - probs[d])
        for d, (logit, grad) in enumerate(zip(self.logits, grads)):
            update = (learning_rate / len(samples)) * grad
            if entropy_coef > 0:
                p = probs[d]
                log_p = np.log(p + 1e-12)
                entropy = float(-(p * log_p).sum())
                update += learning_rate * entropy_coef * (-p * (log_p + entropy))
            logit += update


@dataclass
class BaselineTracker:
    """Exponential moving average of rewards (REINFORCE baseline)."""

    momentum: float = 0.9
    value: Optional[float] = None

    def advantage(self, reward: float) -> float:
        """Advantage of ``reward`` against the current baseline."""
        return reward if self.value is None else reward - self.value

    def update(self, rewards: Sequence[float]) -> None:
        if not len(rewards):
            return
        mean = float(np.mean(rewards))
        if self.value is None:
            self.value = mean
        else:
            self.value = self.momentum * self.value + (1 - self.momentum) * mean


class ReinforceController:
    """Policy + baseline, exposing the per-step update the searches use."""

    def __init__(
        self,
        space: SearchSpace,
        learning_rate: float = 0.2,
        baseline_momentum: float = 0.9,
        entropy_coef: float = 0.0,
        seed: int = 0,
    ):
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if entropy_coef < 0:
            raise ValueError("entropy_coef must be non-negative")
        self.policy = CategoricalPolicy(space)
        self.learning_rate = learning_rate
        self.entropy_coef = entropy_coef
        self.baseline = BaselineTracker(momentum=baseline_momentum)
        self._rng = np.random.default_rng(seed)

    def sample(self) -> Tuple[Architecture, np.ndarray]:
        return self.policy.sample(self._rng)

    def sample_many(self, count: int) -> List[Tuple[Architecture, np.ndarray]]:
        """Independent samples, one per parallel core (vectorized draw)."""
        return self.policy.sample_batch(self._rng, count)

    def update(self, samples: Sequence[Tuple[np.ndarray, float]]) -> None:
        """REINFORCE update from ``(indices, reward)`` pairs."""
        for _, reward in samples:
            if not np.isfinite(reward):
                raise ValueError(
                    "non-finite reward reached the controller; check the "
                    "quality signal and performance metrics"
                )
        advantaged = [
            (indices, self.baseline.advantage(reward)) for indices, reward in samples
        ]
        self.policy.reinforce_update(
            advantaged, self.learning_rate, entropy_coef=self.entropy_coef
        )
        self.baseline.update([reward for _, reward in samples])

    def best_architecture(self) -> Architecture:
        return self.policy.most_probable_architecture()

    def entropy(self) -> float:
        return self.policy.entropy()

    def state_dict(self) -> dict:
        """Full controller state: policy logits, baseline, rng stream.

        The rng bit-generator state is included so a restored controller
        continues sampling the *same* stream — the property the
        checkpoint subsystem needs for crash-identical resume.
        """
        return {
            "policy": self.policy.state_dict(),
            "baseline_value": self.baseline.value,
            "rng": self._rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        self.policy.load_state_dict(state["policy"])
        value = state["baseline_value"]
        self.baseline.value = None if value is None else float(value)
        self._rng.bit_generator.state = state["rng"]
