"""The single-step family shares one step body (``SearchEngine._shard_step``).

What the three strategies built on it do is pinned against constants
recorded at the commit that still wrote the step out three times: the
stage timers each opens (``eval_stats.stage_calls``) and, for TuNAS's
shared-batch scoring, the values ``score_on_batch`` returned before it
became ``score_shard`` on singleton groups.
"""

import pytest

from repro.core import (
    ElasticTraining,
    PerformanceObjective,
    SearchConfig,
    SingleStepSearch,
    SpecializationSearch,
    SurrogateSuperNetwork,
    TunasSearch,
    relu_reward,
)
from repro.data import CtrTaskConfig, CtrTeacher, SingleStepPipeline, TwoStreamPipeline
from repro.searchspace import DlrmSpaceConfig, dlrm_search_space
from repro.supernet import DlrmSuperNetwork, DlrmSupernetConfig

NUM_TABLES = 2
STEPS = 3


def _space():
    return dlrm_search_space(DlrmSpaceConfig(num_tables=NUM_TABLES, num_dense_stacks=2))


def _step_time(arch):
    return {"step_time": 1.0 + 0.05 * arch["emb0/width_delta"]}


def _quality(arch):
    return 1.0 - 0.01 * arch["emb0/width_delta"]


def _dlrm():
    return DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES, seed=0))


def _build(strategy, supernet=None):
    teacher = CtrTeacher(CtrTaskConfig(num_tables=NUM_TABLES, batch_size=16, seed=0))
    config = SearchConfig(steps=STEPS, num_cores=4, warmup_steps=1, seed=0)
    supernet = supernet if supernet is not None else _dlrm()
    if strategy == "elastic":
        return ElasticTraining(
            _space(), supernet, SingleStepPipeline(teacher.next_batch), config=config
        )
    cls, pipeline = {
        "single_step": (SingleStepSearch, SingleStepPipeline(teacher.next_batch)),
        "specialization": (SpecializationSearch, SingleStepPipeline(teacher.next_batch)),
        "tunas": (
            TunasSearch,
            TwoStreamPipeline(teacher.next_batch, train_batches=6, valid_batches=4),
        ),
    }[strategy]
    return cls(
        space=_space(),
        supernet=supernet,
        pipeline=pipeline,
        reward_fn=relu_reward([PerformanceObjective("step_time", 1.0, -0.5)]),
        performance_fn=_step_time,
        config=config,
    )


#: ``eval_stats.stage_calls`` after three steps (one of them warmup):
#: a half that is off opens no timer at all.
STAGE_CALLS = {
    "single_step": {
        "sample": 3, "fetch_shard": 3, "score": 3, "price": 3, "reward": 3,
        "policy_update": 2, "weight_update": 3,
    },
    "elastic": {"sample": 3, "fetch_shard": 3, "score": 3, "weight_update": 3},
    "specialization": {
        "sample": 3, "fetch_shard": 3, "score": 3, "price": 3, "reward": 3,
        "policy_update": 2,
    },
    "tunas": {
        "weight_update": 3, "fetch_shard": 3, "sample": 3, "score": 3, "price": 3,
        "reward": 3, "policy_update": 2,
    },
}

SUPERNETS = {
    "dlrm": _dlrm,
    "surrogate": lambda: SurrogateSuperNetwork(_quality, noise_sigma=0.05, seed=11),
    "split_noise": lambda: SurrogateSuperNetwork(
        _quality, noise_sigma=0.05, seed=11, split_noise=True
    ),
}

#: ``TunasSearch.score_on_batch`` on one policy draw and one batch.
SHARED_BATCH_QUALITIES = {
    "dlrm": [0.625, 0.4375, 0.625, 0.5625],
    "surrogate": [
        0.9917096383626592, 1.0479873770154982, 1.0612360539292967, 0.9644846461606166,
    ],
    "split_noise": [
        1.0621845477349063, 1.0202544736187118, 1.04710495018888, 0.9381429219920976,
    ],
}


def _shared_batch_qualities(kind):
    search = _build("tunas", SUPERNETS[kind]())
    drawn = search.controller.sample_many(4)
    return search.score_on_batch(drawn, search.pipeline.next_valid_batch())


@pytest.mark.parametrize("strategy", sorted(STAGE_CALLS))
def test_each_strategy_opens_the_timers_it_always_did(strategy):
    result = _build(strategy).run()
    assert result.eval_stats.stage_calls == STAGE_CALLS[strategy]


@pytest.mark.parametrize("kind", sorted(SHARED_BATCH_QUALITIES))
def test_score_on_batch_is_score_shard_on_singleton_groups(kind):
    assert _shared_batch_qualities(kind) == SHARED_BATCH_QUALITIES[kind]



def test_grouped_weight_update_needs_what_the_score_stage_held():
    search = _build("single_step")
    drawn = search.controller.sample_many(4)
    batches = search.pipeline.next_shard(4)
    groups = [[0], [1], [2], [3]]
    with pytest.raises(RuntimeError, match="nothing held"):
        search.accumulate_shard_gradient(drawn, batches, groups)
    search.score_shard(drawn, batches, groups, trains_on_shard=True)
    search.accumulate_shard_gradient(drawn, batches, groups)
    assert any(p.grad is not None for p in search.supernet.parameters())
