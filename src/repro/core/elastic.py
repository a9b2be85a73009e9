"""Once-for-all elastic workflow: train one supernet, specialize many.

The paper amortizes search cost across a fleet of hardware targets; the
OFA line of work (PAPERS.md) shows how: train **one** elastic supernet
whose sub-networks are all simultaneously trained to convergence, then
run cheap *policy-only* searches against the frozen weights for each
deployment target.  N full searches become 1 training + N fast
specializations.  Both halves are stage configurations over the shared
:class:`~repro.core.engine.SearchEngine`:

* :class:`ElasticTraining` — weight-only training of the elastic
  supernet under a progressive-shrinking schedule
  (:class:`~repro.supernet.elastic.ShrinkSchedule`): candidates are
  sampled uniformly from a sub-space that widens on a step schedule
  (baseline only, then width-like decisions, then depth).  No policy,
  no pricing, no reward — the product is the trained weights,
  checkpointed as a versioned artifact
  (:func:`repro.runtime.artifact.save_elastic_artifact`).

* :class:`SpecializationSearch` — the per-target half: a full
  sample/score/price/reward/policy pipeline with **no weight_update
  stage**.  The supernet weights are restored from the artifact before
  construction and never change, so the run stays cache-hot through
  :class:`~repro.core.eval_runtime.EvalRuntime` and — because
  ``optimizer_step`` never fires — remote backends publish the shared
  weights exactly once.  Scored batches are explicitly released back to
  the pipeline (they will never train weights), keeping bookkeeping
  O(outstanding) as in the weight-training regimes.

Both strategies ride the stepwise checkpoint protocol unchanged, so
crash/resumed runs are bit-identical: the shrink phase is a pure
function of the step index and the sampler rng already rides in every
snapshot.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional

from ..searchspace.base import Architecture, SearchSpace
from ..supernet.elastic import ShrinkSchedule
from .engine import DrawnCandidate, SearchConfig, SearchEngine, StepRecord, SuperNetwork
from .reward import relu_reward

__all__ = ["ElasticTraining", "SpecializationSearch"]


def _no_metrics(arch: Architecture) -> Mapping[str, float]:
    """Performance stand-in for weight-only training: nothing to price."""
    return {}


class ElasticTraining(SearchEngine):
    """Progressive-shrinking weight training of one elastic supernet.

    One step = uniform candidates from the current shrink phase's
    sub-space, scored on fresh single-use batches (quality is recorded
    for monitoring only), then one cross-shard weight update on the same
    batches.  The policy half never runs (``_shard_step(policy=False)``):
    each record's reward is its quality, purely so step records stay
    comparable with search histories.
    """

    def __init__(
        self,
        space: SearchSpace,
        supernet: SuperNetwork,
        pipeline: Any,
        schedule: Optional[ShrinkSchedule] = None,
        config: Optional[SearchConfig] = None,
    ):
        super().__init__(
            space,
            supernet,
            pipeline,
            reward_fn=relu_reward([]),
            performance_fn=_no_metrics,
            config=config,
        )
        self.schedule = schedule or ShrinkSchedule.default(self.config.steps)

    # ------------------------------------------------------------------
    def sample_phase_shard(self, step: int, count: int) -> List[DrawnCandidate]:
        """Uniform candidates from the shrink phase active at ``step``.

        The restricted space keeps the full decision set (pinned
        decisions have one admissible choice) and consumes exactly one
        rng draw per decision regardless of phase, so the sampler rng
        advances identically across phases — the property crash/resume
        bit-identity rests on.  Index vectors come from the *full* space
        so downstream encodings are phase-independent.
        """
        return self._uniform_shard(self.schedule.space_at(step, self.space), count)

    def _step(self, step: int) -> StepRecord:
        return self._shard_step(
            step,
            lambda: self.sample_phase_shard(step, self.config.num_cores),
            policy=False,
            weights=True,
        )

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = super().state_dict()
        state["shrink"] = {"schedule": self.schedule.describe()}
        return state

    def load_state_dict(self, state: Mapping) -> None:
        shrink = state.get("shrink")
        if shrink is not None:
            snapshotted = ShrinkSchedule.from_payload(shrink["schedule"])
            if snapshotted != self.schedule:
                from ..runtime.checkpoint import CheckpointError

                raise CheckpointError(
                    "checkpoint was taken under a different shrink schedule "
                    f"({snapshotted!r} != {self.schedule!r})"
                )
        super().load_state_dict(state)


class SpecializationSearch(SearchEngine):
    """Policy-only search against a frozen elastic supernet.

    The full reward pipeline of the single-step search minus its weight
    half: candidates are sampled by the policy, scored with the frozen
    shared weights on fresh batches, priced for the *target* hardware
    platform, and folded into REINFORCE updates.  The optimizer never
    steps, so the weights stay bit-identical to the artifact and every
    backend scores against one never-republished weight snapshot.
    """

    def _step(self, step: int) -> StepRecord:
        return self._shard_step(step, policy=True, weights=False)
