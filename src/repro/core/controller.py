"""REINFORCE controller over categorical search-space decisions.

The RL algorithm "learns a policy pi, a probability distribution over a
collection of independent multinomial variables.  Each variable
controls a decision of the search space" (Section 4.1).  The policy is
a per-decision logit vector; sampling is independent across decisions;
updates follow REINFORCE with a moving-average reward baseline (the
standard variance reduction TuNAS also uses).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..searchspace.base import Architecture, SearchSpace


def _sum_in_order(values: np.ndarray) -> float:
    """``0.0 + v[0] + v[1] + ...`` in Python floats (3.12's ``sum`` compensates)."""
    return functools.reduce(operator.add, values.tolist(), 0.0)


class CategoricalPolicy:
    """Independent multinomial distributions, one per decision.

    The logits are one dense, unpadded table per distinct choice count;
    ``logits[d]`` is decision ``d``'s row, a view a write goes through.
    Each method is a few array ops per table, computing row by row what
    a per-decision loop would, in the same order (DESIGN.md §10).
    """

    def __init__(self, space: SearchSpace):
        self.space = space
        self._counts = np.array([d.num_choices for d in space.decisions], dtype=np.int64)
        self._tables: List[Tuple[np.ndarray, np.ndarray]] = []  # (its decisions, logits)
        for count in np.unique(self._counts):
            rows = np.flatnonzero(self._counts == count)
            self._tables.append((rows, np.zeros((len(rows), count))))
        # The tables' rows, end to end, are the decisions in stable count order.
        self._order = np.argsort(np.argsort(self._counts, kind="stable"))
        self.logits: List[np.ndarray] = self._decision_rows([t for _, t in self._tables])

    def _decision_rows(self, tables: Sequence[np.ndarray]) -> List[np.ndarray]:
        """The rows of per-count ``tables``, listed in decision order."""
        rows = [row for table in tables for row in table]
        return [rows[i] for i in self._order]

    def _in_decision_order(self, per_table: Sequence[np.ndarray]) -> np.ndarray:
        """One value per row of each table, as one array in decision order."""
        return np.concatenate(per_table or [np.empty(0)])[self._order]

    def _probability_tables(self) -> List[np.ndarray]:
        """Softmax of every row of every table."""
        exps = [np.exp(table - table.max(axis=1, keepdims=True)) for _, table in self._tables]
        return [exp / exp.sum(axis=1, keepdims=True) for exp in exps]

    def _index_matrix(self, vectors: Sequence[Sequence[int]]) -> np.ndarray:
        """Stack index vectors, refusing any that does not fit the space."""
        decisions = self.space.decisions
        for vector in vectors:
            if len(vector) != len(decisions):
                named = decisions[min(len(vector), len(decisions) - 1)].name
                wrong = "has no entry for" if len(vector) < len(decisions) else "runs past"
                raise ValueError(f"index vector of length {len(vector)} {wrong} decision {named!r}")
        matrix = np.asarray(vectors, dtype=np.int64).reshape(len(vectors), len(decisions))
        bad = (matrix < 0) | (matrix >= self._counts)
        for sample, d in np.argwhere(bad)[:1] if bad.any() else ():
            name, count = decisions[d].name, self._counts[d]
            raise ValueError(
                f"index {matrix[sample, d]} is out of range for decision {name!r} ({count} choices)"
            )
        return matrix

    def probabilities(self) -> List[np.ndarray]:
        """Per-decision choice probabilities."""
        return self._decision_rows(self._probability_tables())

    def sample(self, rng: np.random.Generator) -> Tuple[Architecture, np.ndarray]:
        """Draw an architecture; returns it with its index vector."""
        return self.sample_batch(rng, 1)[0]

    def sample_batch(
        self, rng: np.random.Generator, count: int
    ) -> List[Tuple[Architecture, np.ndarray]]:
        """Draw ``count`` architectures, consuming the generator stream as
        ``count`` sequential :meth:`sample` calls do (one uniform per
        decision, row-major).  A choice is how many entries of its cdf are
        ``<= u``: on a non-decreasing cdf, ``searchsorted(cdf, u, "right")``."""
        if count < 1:
            raise ValueError("count must be >= 1")
        uniforms = rng.random((count, len(self._counts)))
        index_matrix = np.empty(uniforms.shape, dtype=np.int64)
        for (rows, _), probs in zip(self._tables, self._probability_tables()):
            cdf = np.cumsum(probs, axis=1)
            cdf = cdf / cdf[:, -1:]
            index_matrix[:, rows] = (cdf <= uniforms[:, rows, None]).sum(axis=2)
        architectures = map(self.space.architecture_from_indices, index_matrix.tolist())
        return list(zip(architectures, index_matrix))

    def entropy(self) -> float:
        """Summed entropy across decisions (search-convergence signal)."""
        return _sum_in_order(self._in_decision_order([
            -(probs * np.log(probs + 1e-12)).sum(axis=1) for probs in self._probability_tables()
        ]))

    def most_probable_architecture(self) -> Architecture:
        """Independently pick the argmax of every decision (end of search)."""
        argmax = [table.argmax(axis=1) for _, table in self._tables]
        return self.space.architecture_from_indices(self._in_decision_order(argmax))

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

    def reinforce_update(
        self,
        samples: Sequence[Tuple[np.ndarray, float]],
        learning_rate: float,
        entropy_coef: float = 0.0,
    ) -> None:
        """One cross-shard REINFORCE step.

        ``samples`` holds one ``(index_vector, advantage)`` pair per
        parallel core; the per-decision gradients of ``log pi``,
        ``onehot(choice) - probs``, are averaged across cores.  The
        ``entropy_coef`` bonus, against premature convergence while
        constraint penalties dominate the early reward, comes from the
        same probability snapshot and lands in the same step, so it is
        invariant to shard size like the averaged REINFORCE term.
        """
        if not samples:
            return
        chosen = self._index_matrix([indices for indices, _ in samples])
        advantages = np.array([advantage for _, advantage in samples], dtype=float)[:, None, None]
        for (rows, logits), probs in zip(self._tables, self._probability_tables()):
            onehots = chosen[:, rows, None] == np.arange(logits.shape[1])
            grad = np.zeros(logits.shape)
            for term in advantages * (onehots - probs):  # in sample order
                grad += term
            update = (learning_rate / len(samples)) * grad
            if entropy_coef > 0:
                log_p = np.log(probs + 1e-12)
                entropy = -(probs * log_p).sum(axis=1, keepdims=True)
                update += learning_rate * entropy_coef * (-probs * (log_p + entropy))
            logits += update


@dataclass
class BaselineTracker:
    """Exponential moving average of rewards (REINFORCE baseline)."""

    momentum: float = 0.9
    value: Optional[float] = None

    def advantage(self, reward: float) -> float:
        """Advantage of ``reward`` against the current baseline."""
        return reward if self.value is None else reward - self.value

    def update(self, rewards: Sequence[float]) -> None:
        if len(rewards):
            # np.mean's sum and division, without its list-handling overhead
            mean = float(np.add.reduce(np.asarray(rewards, dtype=np.float64))) / len(rewards)
            old = self.value
            self.value = mean if old is None else self.momentum * old + (1 - self.momentum) * mean


class ReinforceController:
    """Policy + baseline, exposing the per-step update the searches use."""

    def __init__(
        self,
        space: SearchSpace,
        learning_rate: float = 0.2,
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
        self.baseline = BaselineTracker()
        self._rng = np.random.default_rng(seed)

    def sample(self) -> Tuple[Architecture, np.ndarray]:
        return self.policy.sample(self._rng)

    def sample_many(self, count: int) -> List[Tuple[Architecture, np.ndarray]]:
        """Independent samples, one per parallel core (vectorized draw)."""
        return self.policy.sample_batch(self._rng, count)

    def update(self, samples: Sequence[Tuple[np.ndarray, float]]) -> None:
        """REINFORCE update from ``(indices, reward)`` pairs."""
        if not all(math.isfinite(reward) for _, reward in samples):
            raise ValueError(
                "non-finite reward reached the controller; check the "
                "quality signal and performance metrics"
            )
        advantaged = [(indices, self.baseline.advantage(reward)) for indices, reward in samples]
        self.policy.reinforce_update(advantaged, self.learning_rate, entropy_coef=self.entropy_coef)
        self.baseline.update([reward for _, reward in samples])

    def best_architecture(self) -> Architecture:
        return self.policy.most_probable_architecture()

    def entropy(self) -> float:
        return self.policy.entropy()

    def state_dict(self) -> dict:
        """Full controller state: policy logits, baseline, rng stream (so a
        restored controller samples the *same* stream: crash-identical resume)."""
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
