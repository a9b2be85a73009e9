"""Pareto-front tracing: sweep performance targets, collect the front.

The paper's Figure 5 methodology as a first-class API: a single search
returns one Pareto-optimized model for one set of launch targets; to
*trace* the quality/performance front, deployments sweep the primary
target (e.g. training step time from 0.75x to 1.5x of baseline) and
run one search per setting.  This module runs that sweep and reduces
the results to the non-dominated front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence

from ..analysis.pareto import pareto_front
from ..data.pipeline import SingleStepPipeline
from ..data.synthetic import NullSource
from ..searchspace.base import Architecture, SearchSpace
from .eval_runtime import EvalRuntime, EvalRuntimeStats
from .reward import PerformanceObjective, RewardFunction, relu_reward
from .search import PerformanceFn, SearchConfig, SingleStepSearch
from .surrogate import SurrogateSuperNetwork

QualityFn = Callable[[Architecture], float]


@dataclass(frozen=True)
class FrontPoint:
    """One searched model on the quality/performance plane."""

    architecture: Architecture
    quality: float
    metrics: Mapping[str, float]
    target_scale: float


@dataclass
class FrontResult:
    """Outcome of a target sweep."""

    points: List[FrontPoint] = field(default_factory=list)
    primary_metric: str = "train_step_time"
    #: sweep-wide evaluation-runtime counters (cache shared across targets)
    eval_stats: Optional[EvalRuntimeStats] = None

    def front(self) -> List[FrontPoint]:
        """The non-dominated subset (max quality, min primary metric)."""
        return pareto_front(
            self.points,
            quality=lambda p: p.quality,
            cost=lambda p: p.metrics[self.primary_metric],
        )

    def best_quality(self) -> FrontPoint:
        return max(self.points, key=lambda p: p.quality)

    def fastest(self) -> FrontPoint:
        return min(self.points, key=lambda p: p.metrics[self.primary_metric])


@dataclass(frozen=True)
class FrontSearchConfig:
    """Knobs of the target sweep."""

    primary_metric: str = "train_step_time"
    target_scales: Sequence[float] = (0.75, 0.9, 1.0, 1.25, 1.5)
    beta: float = -3.0
    quality_weight: float = 2.0
    quality_noise: float = 0.01
    search: SearchConfig = field(
        default_factory=lambda: SearchConfig(
            steps=300,
            num_cores=8,
            warmup_steps=10,
            policy_lr=0.12,
            policy_entropy_coef=0.15,
            record_candidates=False,
        )
    )

    def __post_init__(self) -> None:
        if not self.target_scales:
            raise ValueError("target_scales must be non-empty")
        if any(s <= 0 for s in self.target_scales):
            raise ValueError("target scales must be positive")
        if self.quality_weight <= 0:
            raise ValueError("quality_weight must be positive")


def trace_front(
    space: SearchSpace,
    quality_fn: QualityFn,
    performance_fn: PerformanceFn,
    config: Optional[FrontSearchConfig] = None,
    secondary_objectives: Sequence[PerformanceObjective] = (),
    baseline: Optional[Architecture] = None,
    checkpoint_store=None,
) -> FrontResult:
    """Sweep the primary target and collect one searched model per setting.

    ``quality_fn`` is an analytical/surrogate quality signal (hyperscale
    regime); ``performance_fn`` returns the metric mapping used by the
    reward.  ``secondary_objectives`` (e.g. a neutral model-size target)
    apply unchanged at every sweep point.

    All sweep points share one :class:`EvalRuntime`: the performance
    signal does not depend on the target, so candidates revisited by
    later searches are priced from the cache.  The sweep-wide counters
    land on ``FrontResult.eval_stats``.

    With a ``checkpoint_store`` (:class:`repro.runtime.CheckpointStore`)
    the sweep snapshots after every completed target — each point's
    search is seeded identically, so resuming at a point boundary yields
    the same front an uninterrupted sweep produces.
    """
    config = config if config is not None else FrontSearchConfig()
    baseline = baseline or space.default_architecture()
    runtime = EvalRuntime(
        performance_fn,
        space=space,
        use_cache=config.search.use_cache,
        cache_capacity=config.search.cache_size,
    )
    base_value = runtime.price(baseline)[config.primary_metric]
    result = FrontResult(primary_metric=config.primary_metric)
    finals: List[Architecture] = []
    start_index = 0
    if checkpoint_store is not None:
        from ..runtime.checkpoint import CHECKPOINT_FORMAT, check_header
        from ..runtime.recovery import resume_latest

        loaded = resume_latest(checkpoint_store)
        if loaded is not None:
            state = loaded.state
            check_header(state, "trace_front")
            start_index = int(state["next_scale_index"])
            finals = [
                space.architecture_from_indices(indices)
                for indices in state["finals"]
            ]
            runtime.import_state(state["runtime"])
    scales = list(config.target_scales)
    for index in range(start_index, len(scales)):
        scale = scales[index]
        objectives = [
            PerformanceObjective(
                config.primary_metric, base_value * scale, beta=config.beta
            ),
            *secondary_objectives,
        ]
        search = SingleStepSearch(
            space=space,
            supernet=SurrogateSuperNetwork(
                lambda a: config.quality_weight * quality_fn(a),
                noise_sigma=config.quality_noise,
                seed=config.search.seed,
            ),
            pipeline=SingleStepPipeline(NullSource().next_batch),
            reward_fn=relu_reward(objectives),
            performance_fn=performance_fn,
            config=config.search,
            eval_runtime=runtime,
        )
        finals.append(search.run().final_architecture)
        if checkpoint_store is not None and index + 1 < len(scales):
            checkpoint_store.save(
                index + 1,
                {
                    "format": CHECKPOINT_FORMAT,
                    "algorithm": "trace_front",
                    "next_scale_index": index + 1,
                    "finals": [
                        [int(i) for i in space.indices_of(arch)] for arch in finals
                    ],
                    "runtime": runtime.export_state(),
                },
            )
    # Price all sweep winners in one batched call (usually cache hits —
    # each winner was priced during its own search).
    final_metrics = runtime.price_many([(arch, None) for arch in finals])
    for scale, final, metrics in zip(config.target_scales, finals, final_metrics):
        result.points.append(
            FrontPoint(
                architecture=final,
                quality=quality_fn(final),
                metrics=metrics,
                target_scale=scale,
            )
        )
    result.eval_stats = runtime.stats()
    return result
