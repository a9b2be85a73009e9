"""High-level entry point tying the H2O-NAS pillars together.

:class:`H2ONas` wires a search space, a weight-sharing super-network,
an in-memory production-traffic source, performance objectives, and a
performance predictor into the massively parallel single-step search —
the full colored path of Figure 1.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

from ..data.batch import Batch
from ..data.pipeline import SingleStepPipeline
from ..searchspace.base import Architecture, SearchSpace
from .reward import PerformanceObjective, absolute_reward, relu_reward
from .search import (
    PerformanceFn,
    SearchConfig,
    SearchResult,
    SingleStepSearch,
    SuperNetwork,
)


class H2ONas:
    """End-to-end Hyperscale Hardware Optimized NAS."""

    def __init__(
        self,
        space: SearchSpace,
        supernet: SuperNetwork,
        batch_source: Callable[[], Batch],
        performance_fn: PerformanceFn,
        objectives: Sequence[PerformanceObjective],
        reward_kind: str = "relu",
        config: Optional[SearchConfig] = None,
        max_batches: Optional[int] = None,
    ):
        config = config if config is not None else SearchConfig()
        self.space = space
        self.supernet = supernet
        self.pipeline = SingleStepPipeline(batch_source, max_batches=max_batches)
        reward_factory = relu_reward if reward_kind == "relu" else absolute_reward
        if reward_kind not in ("relu", "absolute"):
            raise ValueError("reward_kind must be 'relu' or 'absolute'")
        self.reward_fn = reward_factory(objectives)
        self.search_algorithm = SingleStepSearch(
            space=space,
            supernet=supernet,
            pipeline=self.pipeline,
            reward_fn=self.reward_fn,
            performance_fn=performance_fn,
            config=config,
        )
        #: the memoized candidate-evaluation runtime (cache + timers);
        #: controlled by ``config.use_cache``.
        self.eval_runtime = self.search_algorithm.runtime

    def search(
        self,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 10,
        resume: bool = True,
        keep_last: int = 3,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> SearchResult:
        """Run the search and return the Pareto-optimized architecture.

        The returned ``SearchResult.eval_stats`` reports cache hit rate
        and per-stage wall time for the run.

        With a ``checkpoint_dir`` the search snapshots its full state
        every ``checkpoint_every`` steps (see :mod:`repro.runtime`) and,
        when ``resume`` is set, restores from the newest good snapshot
        before running — a resumed search is bit-identical to an
        uninterrupted one.

        ``should_stop`` enables graceful shutdown: polled at every step
        boundary, and when true the run writes a final checkpoint (if a
        ``checkpoint_dir`` is set) and raises
        :class:`~repro.runtime.errors.SearchInterrupted`.
        """
        if checkpoint_dir is None and should_stop is None:
            return self.search_algorithm.run()
        from ..runtime import CheckpointStore, run_with_checkpoints

        store = (
            CheckpointStore(checkpoint_dir, keep_last=keep_last)
            if checkpoint_dir is not None
            else None
        )
        run = run_with_checkpoints(
            self.search_algorithm,
            store=store,
            checkpoint_every=checkpoint_every,
            resume=resume,
            should_stop=should_stop,
        )
        return run.result

    def evaluate(self, arch: Architecture, batch: Batch) -> float:
        """Quality of ``arch`` on a held-out batch (post-search check)."""
        return self.supernet.quality(arch, batch.inputs, batch.labels)
