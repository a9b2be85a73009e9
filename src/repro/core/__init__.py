"""H2O-NAS core: rewards, RL controller, search algorithms, facade."""

from .controller import BaselineTracker, CategoricalPolicy, ReinforceController
from .cost import NasCostModel
from .engine import ExecutionBackend, SearchEngine, resolve_backend, shutdown_pools
from .elastic import ElasticTraining, SpecializationSearch
from .eval_runtime import (
    ArchMetricsCache,
    BatchPerformanceFn,
    EvalRuntime,
    EvalRuntimeStats,
    MemoizedEvaluate,
    arch_key,
)
from .multitrial import (
    EvolutionConfig,
    EvolutionarySearch,
    MultiTrialResult,
    RandomSearch,
    Trial,
)
from .facade import H2ONas
from .gradient_search import DartsConfig, DartsResult, DartsSearch
from .reward import (
    PerformanceObjective,
    RewardFunction,
    absolute_reward,
    relu_reward,
)
from .surrogate import SurrogateSuperNetwork
from .search import (
    CandidateRecord,
    SearchConfig,
    SearchResult,
    SingleStepSearch,
    StepRecord,
    TunasSearch,
    group_unique_architectures,
)


__all__ = [
    "ArchMetricsCache",
    "BaselineTracker",
    "BatchPerformanceFn",
    "CandidateRecord",
    "CategoricalPolicy",
    "ElasticTraining",
    "EvalRuntime",
    "EvalRuntimeStats",
    "ExecutionBackend",
    "MemoizedEvaluate",
    "SearchEngine",
    "arch_key",
    "resolve_backend",
    "shutdown_pools",
    "group_unique_architectures",
    "EvolutionConfig",
    "EvolutionarySearch",
    "MultiTrialResult",
    "NasCostModel",
    "RandomSearch",
    "Trial",
    "DartsConfig",
    "DartsResult",
    "DartsSearch",
    "H2ONas",
    "PerformanceObjective",
    "ReinforceController",
    "RewardFunction",
    "SearchConfig",
    "SearchResult",
    "SingleStepSearch",
    "SpecializationSearch",
    "StepRecord",
    "SurrogateSuperNetwork",
    "TunasSearch",
    "absolute_reward",
    "relu_reward",
]
