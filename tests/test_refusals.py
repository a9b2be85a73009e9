"""Refusals: a config or entry point given a value outside its domain
raises before doing any work, with an error that names what is wrong.

One row per refusal the rest of the suite does not reach by its message.
"""

import numpy as np
import pytest

from repro.analysis import (
    ascii_scatter,
    bucketize,
    format_table,
    geometric_mean,
    proxy_relative_error,
    spearman_correlation,
)
from repro.core import DartsConfig, EvolutionConfig, NasCostModel, RewardFunction
from repro.core.reward import PerformanceObjective
from repro.graph import OpGraph, passes
from repro.hardware import (
    TPU_V4,
    allreduce_time,
    platform,
    sensitivity_profile,
)
from repro.models import MlpStackSpec, TableSpec
from repro.nn import LayerNorm, MaskedEmbedding, Tensor
from repro.nn.tensor import stack_mean
from repro.perfmodel import TwoPhaseConfig, nrmse, rmse
from repro.runtime import CheckpointStore
from repro.searchspace import (
    CnnSpaceConfig,
    Decision,
    DlrmSpaceConfig,
    SearchSpace,
    VitSpaceConfig,
)
from repro.service import SchedulerConfig
from repro.supernet import (
    DlrmSupernetConfig,
    ShrinkPhase,
    ShrinkSchedule,
    TransformerSupernetConfig,
)


def _space():
    return SearchSpace("s", [Decision("a", (1, 2)), Decision("b", ("x", "y", "z"))])


def _graph():
    graph = OpGraph()
    graph.append("op", "add", flops=1e6, bytes_in=1e4, bytes_out=1e4)
    return graph


CASES = [
    # -- search spaces ---------------------------------------------------
    pytest.param(
        lambda: DlrmSpaceConfig(num_tables=0),
        ValueError, "num_tables must be >= 1", id="dlrm_space_tables",
    ),
    pytest.param(
        lambda: DlrmSpaceConfig(num_dense_stacks=0),
        ValueError, "num_dense_stacks must be >= 1", id="dlrm_space_stacks",
    ),
    pytest.param(
        lambda: CnnSpaceConfig(num_blocks=0),
        ValueError, "num_blocks must be >= 1", id="cnn_space_blocks",
    ),
    pytest.param(
        lambda: VitSpaceConfig(num_tfm_blocks=0),
        ValueError, "num_tfm_blocks must be >= 1", id="vit_space_tfm_blocks",
    ),
    pytest.param(
        lambda: VitSpaceConfig(num_conv_blocks=-1),
        ValueError, "num_conv_blocks must be >= 0", id="vit_space_conv_blocks",
    ),
    pytest.param(
        lambda: SearchSpace("s", [Decision("a", (1,)), Decision("a", (2,))]),
        ValueError, "duplicate decision names", id="space_duplicate_names",
    ),
    pytest.param(
        lambda: _space().architecture_from_indices([0]),
        ValueError, "length does not match decision count", id="indices_short",
    ),
    pytest.param(
        lambda: _space().architecture_from_indices([0, 1, 2]),
        ValueError, "length does not match decision count", id="indices_long",
    ),
    pytest.param(
        lambda: _space().frozen({"c": 1}),
        KeyError, r"cannot freeze unknown decisions: \['c'\]", id="freeze_unknown",
    ),
    # -- supernets and the shrink schedule --------------------------------
    pytest.param(
        lambda: DlrmSupernetConfig(vocab_sharing="medium"),
        ValueError, "vocab_sharing must be 'coarse' or 'fine'", id="dlrm_vocab_sharing",
    ),
    pytest.param(
        lambda: TransformerSupernetConfig(width_divisor=0),
        ValueError, "width_divisor must be >= 1", id="transformer_width_divisor",
    ),
    pytest.param(
        lambda: TransformerSupernetConfig(task="seq2seq"),
        ValueError, "task must be 'classification' or 'lm'", id="transformer_task",
    ),
    pytest.param(
        lambda: ShrinkSchedule([ShrinkPhase("a", 0), ShrinkPhase("a", 3)]),
        ValueError, "phase names must be unique", id="schedule_duplicate_phase",
    ),
    pytest.param(
        lambda: ShrinkSchedule.default(0),
        ValueError, "total_steps must be >= 1", id="schedule_total_steps",
    ),
    pytest.param(
        lambda: ShrinkSchedule.default(9).phase_index(-1),
        ValueError, "step must be >= 0", id="schedule_negative_step",
    ),
    # -- search configs and rewards ---------------------------------------
    pytest.param(
        lambda: EvolutionConfig(population_size=1),
        ValueError, "population_size must be >= 2", id="evolution_population",
    ),
    pytest.param(
        lambda: EvolutionConfig(tournament_size=6, population_size=5),
        ValueError, r"tournament_size must be in \[1, population_size\]", id="evolution_tournament",
    ),
    pytest.param(
        lambda: EvolutionConfig(population_size=20, num_trials=19),
        ValueError, "num_trials must cover the initial population", id="evolution_trials",
    ),
    pytest.param(
        lambda: DartsConfig(warmup_steps=-1),
        ValueError, "warmup_steps must be >= 0", id="darts_warmup",
    ),
    pytest.param(
        lambda: PerformanceObjective("latency", 1.0, beta=0.0),
        ValueError, "beta for 'latency' must be negative", id="objective_beta",
    ),
    pytest.param(
        lambda: RewardFunction([], kind="hinge"),
        ValueError, "kind must be 'relu' or 'absolute'", id="reward_kind",
    ),
    pytest.param(
        lambda: NasCostModel(vanilla_training_hours=0.0),
        ValueError, "vanilla_training_hours must be positive", id="cost_hours",
    ),
    pytest.param(
        lambda: NasCostModel(10.0).multi_trial_hours(0),
        ValueError, "num_trials must be >= 1", id="cost_trials",
    ),
    pytest.param(
        lambda: NasCostModel(10.0).downstream_fraction(0.0),
        ValueError, "downstream_hours must be positive", id="cost_downstream",
    ),
    # -- performance model -------------------------------------------------
    pytest.param(
        lambda: TwoPhaseConfig(finetune_epochs=0),
        ValueError, "epoch counts must be >= 1", id="two_phase_epochs",
    ),
    pytest.param(
        lambda: rmse(np.ones(2), np.ones(3)),
        ValueError, "prediction/target shapes differ", id="rmse_shapes",
    ),
    pytest.param(
        lambda: rmse(np.ones(0), np.ones(0)),
        ValueError, "empty inputs", id="rmse_empty",
    ),
    pytest.param(
        lambda: nrmse(np.ones(2), np.zeros(2)),
        ValueError, "targets have zero mean magnitude", id="nrmse_zero_targets",
    ),
    # -- hardware and models ------------------------------------------------
    pytest.param(
        lambda: platform("tpu-v9"),
        ValueError, "unknown platform 'tpu-v9'", id="unknown_platform",
    ),
    pytest.param(
        lambda: allreduce_time(1e6, 0, TPU_V4),
        ValueError, "num_chips must be >= 1", id="allreduce_chips",
    ),
    pytest.param(
        lambda: sensitivity_profile(_graph(), TPU_V4, ["hbm_size"]),
        ValueError, "unknown resource 'hbm_size'", id="whatif_resource",
    ),
    pytest.param(
        lambda: sensitivity_profile(_graph(), TPU_V4, scale=0.0),
        ValueError, "scale must be positive", id="whatif_scale",
    ),
    pytest.param(
        lambda: passes.optimize(_graph(), max_iterations=0),
        ValueError, "max_iterations must be >= 1", id="optimize_iterations",
    ),
    pytest.param(
        lambda: MlpStackSpec(width=8, depth=0),
        ValueError, "width and depth must be positive", id="mlp_stack_depth",
    ),
    pytest.param(
        lambda: MlpStackSpec(width=8, depth=2, low_rank=0.0),
        ValueError, r"low_rank must be in \(0, 1\]", id="mlp_stack_low_rank",
    ),
    pytest.param(
        lambda: TableSpec(vocab=0, width=8),
        ValueError, "vocab and width must be positive", id="table_vocab",
    ),
    # -- nn ---------------------------------------------------------------
    pytest.param(
        lambda: Tensor(np.ones(2)).item(),
        ValueError, "exactly one element", id="item_of_a_vector",
    ),
    pytest.param(
        lambda: Tensor(np.ones(())).backward(),
        RuntimeError, "without grad tracking", id="backward_untracked",
    ),
    pytest.param(
        lambda: Tensor(np.ones(2), requires_grad=True).backward(),
        RuntimeError, "requires a scalar", id="backward_non_scalar",
    ),
    pytest.param(
        lambda: Tensor(np.ones(2)) ** Tensor(np.ones(2)),
        TypeError, "only scalar exponents", id="tensor_exponent",
    ),
    pytest.param(
        lambda: stack_mean([]),
        ValueError, "at least one tensor", id="stack_mean_empty",
    ),
    pytest.param(
        lambda: MaskedEmbedding(0, 4, np.random.default_rng(0)),
        ValueError, "embedding dimensions must be positive", id="embedding_vocab",
    ),
    pytest.param(
        lambda: LayerNorm(0),
        ValueError, "width must be >= 1", id="layernorm_width",
    ),
    # -- analysis -----------------------------------------------------------
    pytest.param(
        lambda: geometric_mean([]),
        ValueError, "geometric mean of empty sequence", id="geomean_empty",
    ),
    pytest.param(
        lambda: geometric_mean([1.0, 0.0]),
        ValueError, "requires positive values", id="geomean_zero",
    ),
    pytest.param(
        lambda: bucketize([1, 2], key=float, value=float, num_buckets=0),
        ValueError, "num_buckets must be >= 1", id="bucketize_buckets",
    ),
    pytest.param(
        lambda: spearman_correlation([1.0], [1.0]),
        ValueError, "at least 2 points", id="spearman_one_point",
    ),
    pytest.param(
        lambda: proxy_relative_error([1.0, -1.0], [1.0, 1.0]),
        ValueError, "proxy and truth must be positive", id="proxy_error_sign",
    ),
    pytest.param(
        lambda: format_table(["a", "b"], [[1]]),
        ValueError, "row length does not match header length", id="table_row_length",
    ),
    pytest.param(
        lambda: ascii_scatter({"s": []}),
        ValueError, "nothing to plot", id="scatter_empty",
    ),
    # -- service and telemetry ------------------------------------------------
    pytest.param(
        lambda: SchedulerConfig(max_concurrent=0),
        ValueError, "max_concurrent must be >= 1", id="scheduler_concurrency",
    ),
    pytest.param(
        lambda: SchedulerConfig(tenant_max_queued=0),
        ValueError, "per-tenant quotas must be >= 1", id="scheduler_tenant_quota",
    ),
    pytest.param(
        lambda: CheckpointStore("unused", keep_last=0),
        ValueError, "keep_last must be >= 1", id="checkpoint_keep_last",
    ),
]


@pytest.mark.parametrize("call, error, message", CASES)
def test_refused_with_a_message(call, error, message):
    with pytest.raises(error, match=message):
        call()
