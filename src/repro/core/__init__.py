"""H2O-NAS core: rewards, RL controller, search algorithms, facade."""

from .controller import BaselineTracker, CategoricalPolicy, ReinforceController
from .cost import NasCostModel
from .engine import (
    ExecutionBackend,
    SearchEngine,
    SerialBackend,
    resolve_backend,
    shutdown_pools,
)
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


def __getattr__(name: str):
    # Lazy (PEP 562), mirroring repro.core.engine: the remote
    # backends' transport imports repro.service, which must not load
    # while this package is still initializing.
    if name in ("DistributedBackend", "ProcessPoolBackend", "run_worker"):
        from . import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArchMetricsCache",
    "BaselineTracker",
    "BatchPerformanceFn",
    "CandidateRecord",
    "CategoricalPolicy",
    "ElasticTraining",
    "EvalRuntime",
    "DistributedBackend",
    "EvalRuntimeStats",
    "ExecutionBackend",
    "MemoizedEvaluate",
    "ProcessPoolBackend",
    "run_worker",
    "SearchEngine",
    "SerialBackend",
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
