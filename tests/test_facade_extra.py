"""Extra facade and search-config coverage."""

import numpy as np
import pytest

from repro.core import H2ONas, PerformanceObjective, SearchConfig
from repro.data import CtrTaskConfig, CtrTeacher, PipelineExhausted
from repro.searchspace import DlrmSpaceConfig, dlrm_search_space
from repro.supernet import DlrmSuperNetwork, DlrmSupernetConfig

from .test_searchspace import assert_full_assignment


def build(max_batches=None, reward_kind="relu"):
    space = dlrm_search_space(DlrmSpaceConfig(num_tables=2, num_dense_stacks=2))
    teacher = CtrTeacher(CtrTaskConfig(num_tables=2, batch_size=16))
    return H2ONas(
        space=space,
        supernet=DlrmSuperNetwork(DlrmSupernetConfig(num_tables=2)),
        batch_source=teacher.next_batch,
        performance_fn=lambda arch: {"step_time": 1.0},
        objectives=[PerformanceObjective("step_time", 1.0, -0.5)],
        reward_kind=reward_kind,
        config=SearchConfig(steps=4, num_cores=2, warmup_steps=1),
        max_batches=max_batches,
    )


class TestFacadeExtra:
    def test_absolute_reward_kind(self):
        nas = build(reward_kind="absolute")
        assert nas.reward_fn.kind == "absolute"
        result = nas.search()
        assert_full_assignment(nas.space, result.final_architecture)

    def test_max_batches_enforced(self):
        nas = build(max_batches=4)
        with pytest.raises(PipelineExhausted):
            nas.search()  # 4 steps x 2 cores = 8 > 4 budget

    def test_pipeline_exposed(self):
        nas = build()
        nas.search()
        assert nas.pipeline.batches_issued == 8

    def test_eval_runtime_exposed(self):
        nas = build()
        result = nas.search()
        assert nas.eval_runtime is nas.search_algorithm.runtime
        stats = result.eval_stats
        assert stats is not None and stats.cache_enabled
        assert stats.cache_hits + stats.cache_misses == 8  # steps x cores
        for stage in ("sample", "score", "price", "weight_update"):
            assert stats.stage_seconds[stage] >= 0.0
