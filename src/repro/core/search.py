"""Search algorithms: H2O-NAS single-step parallel search and the
TuNAS-style alternating baseline (Figure 2 of the paper).

Both algorithms are thin *stage configurations* over the shared
:class:`~repro.core.engine.SearchEngine` pipeline

    ``sample -> fetch_shard -> score -> price -> reward ->
    policy_update -> weight_update``

and differ exactly where the paper says they differ:

* :class:`SingleStepSearch` (right side of Figure 2): one unified step
  learns both ``pi`` and ``W`` from the *same* stream of fresh
  production traffic.  ``N`` parallel cores each sample a candidate,
  score it on a fresh batch (the policy consumes the batch first),
  cross-shard-update the policy, and then cross-shard-update the
  shared weights on the same batches.
* :class:`TunasSearch` (left side of Figure 2): alternating steps — a
  weight-training step on the training split, then a policy step on
  the validation split — with data reuse across epochs, as required
  when data is scarce.

Per-core stages fan out across the engine's execution backend
(``SearchConfig.backend`` / ``--backend processes``); results are
bit-identical to serial execution by the backend contract
(:mod:`repro.core.engine.backends`).
"""

from __future__ import annotations

from .engine import (
    CandidateRecord,
    DrawnCandidate,
    PerformanceFn,
    SearchConfig,
    SearchEngine,
    SearchResult,
    StepRecord,
    SuperNetwork,
    group_unique_architectures,
)
from .eval_runtime import (
    STAGE_FETCH_SHARD,
    STAGE_POLICY_UPDATE,
    STAGE_PRICE,
    STAGE_REWARD,
    STAGE_SAMPLE,
    STAGE_SCORE,
    STAGE_WEIGHT_UPDATE,
)

__all__ = [
    "CandidateRecord",
    "DrawnCandidate",
    "PerformanceFn",
    "SearchConfig",
    "SearchResult",
    "SingleStepSearch",
    "StepRecord",
    "SuperNetwork",
    "TunasSearch",
    "group_unique_architectures",
]


class SingleStepSearch(SearchEngine):
    """H2O-NAS massively parallel unified single-step search.

    One step = one pass over the full stage graph, every stage on the
    same shard of fresh, single-use batches: one vectorized policy draw
    (uniform draws during weight-only warmup), both halves of
    :meth:`~SearchEngine._shard_step`.
    """

    def _step(self, step: int) -> StepRecord:
        return self._shard_step(step, policy=True, weights=True)


class TunasSearch(SearchEngine):
    """TuNAS-style two-step baseline: alternate W and pi learning.

    The stage graph rearranged for the alternating regime: the weight
    update runs *first*, on its own train-split candidate, then the
    policy half (fetch/sample/score/price/reward/policy-update) runs on
    one shared validation batch.
    """

    def _batches_used(self) -> int:
        return self.pipeline.train_size + self.pipeline.valid_size

    def _step(self, step: int) -> StepRecord:
        cfg = self.config
        runtime = self.runtime
        warming_up = step < cfg.warmup_steps
        # Weight-training step on the training split.
        with runtime.timed(STAGE_WEIGHT_UPDATE):
            if warming_up:
                arch = self.space.sample(self._warmup_rng)
            else:
                arch, _ = self.controller.sample()
            self.train_weights_on(arch, self.pipeline.next_train_batch())
        # Policy step on the validation split: one vectorized draw, then
        # score and price the whole shard on the shared batch.
        with runtime.timed(STAGE_FETCH_SHARD):
            valid_batch = self.pipeline.next_valid_batch()
        with runtime.timed(STAGE_SAMPLE):
            drawn = self.controller.sample_many(cfg.num_cores)
        with runtime.timed(STAGE_SCORE):
            qualities = self.score_on_batch(drawn, valid_batch)
        with runtime.timed(STAGE_PRICE):
            all_metrics = self.price_shard(drawn)
        with runtime.timed(STAGE_REWARD):
            candidates, samples = self.assemble_candidates(
                drawn, qualities, all_metrics
            )
        if not warming_up:
            with runtime.timed(STAGE_POLICY_UPDATE):
                self.policy_update(samples)
        return self.make_record(step, candidates)
