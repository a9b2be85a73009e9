"""Gradient-based (DARTS-style) search baseline.

First-order differentiable architecture search over a
:class:`~repro.supernet.mixture.MixtureSuperNetwork`: architecture
parameters ``alpha`` (one logit vector per decision) are relaxed
through a softmax into choice mixtures, and the search alternates

* a **weight step** — update the shared weights ``W`` on a *training*
  batch with ``alpha`` frozen;
* an **architecture step** — update ``alpha`` on a *validation* batch
  with ``W`` frozen (first-order approximation of the bilevel problem).

The method needs the two-dataset split by construction (the relaxation
is trained like weights, so learning it on training data overfits) and
every step evaluates *all* choice branches — the two structural costs
the paper's Sections 2.1/3 cite for preferring the single-step RL
algorithm at hyperscale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..data.pipeline import TwoStreamPipeline
from ..nn import Adam, Tensor
from ..searchspace.base import Architecture
from ..supernet.mixture import MixtureSuperNetwork, mixture_search_space


@dataclass(frozen=True)
class DartsConfig:
    """Knobs of the gradient-based search."""

    steps: int = 100
    warmup_steps: int = 10  # weight-only steps before alpha learning

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")


@dataclass
class DartsResult:
    """Outcome of a gradient-based search."""

    final_architecture: Architecture
    train_losses: List[float] = field(default_factory=list)
    valid_losses: List[float] = field(default_factory=list)
    #: Sub-network branch evaluations performed per step (cost metric).
    branch_evaluations_per_step: int = 0


class DartsSearch:
    """First-order DARTS over the mixture super-network."""

    def __init__(
        self,
        supernet: MixtureSuperNetwork,
        pipeline: TwoStreamPipeline,
        config: Optional[DartsConfig] = None,
        seed: int = 0,
    ):
        config = config if config is not None else DartsConfig()
        self.supernet = supernet
        self.pipeline = pipeline
        self.config = config
        self.space = mixture_search_space(supernet.config)
        self.alphas: Dict[str, Tensor] = {
            decision.name: Tensor(
                np.zeros(decision.num_choices), requires_grad=True, name=decision.name
            )
            for decision in self.space.decisions
        }
        self._weight_optimizer = Adam(supernet.parameters(), lr=0.005)
        self._alpha_optimizer = Adam(list(self.alphas.values()), lr=0.05)

    # ------------------------------------------------------------------
    def probabilities(self) -> Dict[str, Tensor]:
        """Softmax relaxation of every decision (gradients flow to alpha)."""
        return {name: alpha.softmax() for name, alpha in self.alphas.items()}

    def derive_architecture(self) -> Architecture:
        """Discretize: the argmax choice of every decision."""
        indices = [int(np.argmax(self.alphas[d.name].data)) for d in self.space.decisions]
        return self.space.architecture_from_indices(indices)

    def run(self) -> DartsResult:
        result = DartsResult(
            final_architecture=self.space.default_architecture(),
            branch_evaluations_per_step=2 * self.supernet.mixture_branch_count,
        )
        for step in range(self.config.steps):
            # Weight step on the training split (alphas fixed).
            train_batch = self.pipeline.next_train_batch()
            self.supernet.zero_grad()
            for alpha in self.alphas.values():
                alpha.zero_grad()
            train_loss = self.supernet.loss_mixture(
                self.probabilities(), train_batch.inputs, train_batch.labels
            )
            train_loss.backward()
            self._weight_optimizer.step()
            result.train_losses.append(train_loss.item())
            if step < self.config.warmup_steps:
                continue
            # Architecture step on the validation split (weights fixed).
            valid_batch = self.pipeline.next_valid_batch()
            self.supernet.zero_grad()
            for alpha in self.alphas.values():
                alpha.zero_grad()
            valid_loss = self.supernet.loss_mixture(
                self.probabilities(), valid_batch.inputs, valid_batch.labels
            )
            valid_loss.backward()
            self._alpha_optimizer.step()
            result.valid_losses.append(valid_loss.item())
        result.final_architecture = self.derive_architecture()
        return result
