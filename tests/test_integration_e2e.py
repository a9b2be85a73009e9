"""End-to-end integration: the full deployment recipe in one test.

Strings together every pillar the way a production run would:
performance-model pretraining and fine-tuning, the single-step search
with the ReLU multi-objective reward using the model's predictions,
the policy's reload from a checkpoint snapshot, final-candidate
lowering to hardware, and the serving-throughput check under a P99
target.
"""

import numpy as np
import pytest

from repro.core import (
    PerformanceObjective,
    ReinforceController,
    SearchConfig,
    SingleStepSearch,
    SurrogateSuperNetwork,
    relu_reward,
)
from repro.analysis import summarize
from repro.data import NullSource, SingleStepPipeline
from repro.hardware import HardwareTestbed, TPU_V4I, optimize_serving_throughput
from repro.models import baseline_production_dlrm
from repro.models.dlrm import apply_architecture, build_graph
from repro.models.timing import DlrmTimingHarness
from repro.perfmodel import (
    ArchitectureEncoder,
    PerformanceModel,
    TwoPhaseConfig,
    TwoPhaseTrainer,
)
from repro.quality import DlrmQualityModel
from repro.runtime import CheckpointStore
from repro.searchspace import DlrmSpaceConfig, dlrm_search_space

from .test_searchspace import assert_full_assignment

NUM_TABLES = 3


@pytest.fixture(scope="module")
def deployment():
    """One full pipeline run, shared by the assertions below."""
    space = dlrm_search_space(DlrmSpaceConfig(num_tables=NUM_TABLES, num_dense_stacks=2))
    baseline = baseline_production_dlrm(num_tables=NUM_TABLES)
    harness = DlrmTimingHarness(baseline, seed=0)
    quality_model = DlrmQualityModel(baseline)
    # Phase 1+2: the performance model.
    perf_model = PerformanceModel(
        ArchitectureEncoder(space), hidden_sizes=(128, 128),
        size_fn=harness.model_size, seed=0,
    )
    trainer = TwoPhaseTrainer(
        perf_model, space, harness.simulate, harness.measure,
        TwoPhaseConfig(pretrain_epochs=30, finetune_epochs=150, finetune_lr=5e-5),
        seed=0,
    )
    trainer.pretrain(1200)
    nrmse_before = trainer.evaluate(80, harness.measure_deterministic)[0]
    trainer.finetune(20)
    nrmse_after = trainer.evaluate(80, harness.measure_deterministic)[0]
    # Phase 3: the search, driven by the performance model.
    base_metrics = perf_model.predict(space.default_architecture())
    search = SingleStepSearch(
        space=space,
        supernet=SurrogateSuperNetwork(
            lambda a: 4.0 * quality_model.quality(apply_architecture(baseline, a)),
            noise_sigma=0.01,
            seed=0,
        ),
        pipeline=SingleStepPipeline(NullSource().next_batch),
        reward_fn=relu_reward(
            [
                PerformanceObjective(
                    "train_step_time", base_metrics["train_step_time"], beta=-6.0
                ),
                PerformanceObjective(
                    "model_size", base_metrics["model_size"] * 2.0, beta=-6.0
                ),
            ]
        ),
        performance_fn=perf_model.predict,
        config=SearchConfig(
            steps=120, num_cores=6, warmup_steps=10, policy_lr=0.12,
            policy_entropy_coef=0.1, record_candidates=False, seed=0,
        ),
    )
    result = search.run()
    return {
        "space": space,
        "baseline": baseline,
        "harness": harness,
        "quality_model": quality_model,
        "perf_model": perf_model,
        "search": search,
        "result": result,
        "nrmse_before": nrmse_before,
        "nrmse_after": nrmse_after,
    }


class TestEndToEnd:
    def test_perf_model_improved_by_finetuning(self, deployment):
        assert deployment["nrmse_after"] < deployment["nrmse_before"]

    def test_search_converged(self, deployment):
        summary = summarize(deployment["result"])
        assert summary.final_entropy < summary.initial_entropy

    def test_final_architecture_valid_and_deployable(self, deployment):
        space = deployment["space"]
        best = deployment["result"].final_architecture
        assert_full_assignment(space, best)
        # Deployability: meets the step-time target within the perf
        # model's error band, measured on the testbed.
        measured = deployment["harness"].measure_deterministic(best)[0]
        base = deployment["harness"].measure_deterministic(
            space.default_architecture()
        )[0]
        assert measured <= base * 1.25

    def test_quality_not_sacrificed(self, deployment):
        best = deployment["result"].final_architecture
        q_best = deployment["quality_model"].quality(
            apply_architecture(deployment["baseline"], best)
        )
        q_base = deployment["quality_model"].quality(deployment["baseline"])
        assert q_best > q_base - 0.25

    def test_policy_roundtrips_through_a_checkpoint(self, deployment, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(1, deployment["search"].state_dict())
        restored = ReinforceController(deployment["space"])
        restored.load_state_dict(store.load(store.latest())["controller"])
        assert restored.best_architecture() == deployment["result"].final_architecture

    def test_searched_model_serves_under_slo(self, deployment):
        import dataclasses

        best = deployment["result"].final_architecture
        spec = apply_architecture(deployment["baseline"], best)

        def build(batch):
            serving = dataclasses.replace(
                spec, name=f"serve_b{batch}", batch=batch, distributed=False
            )
            return build_graph(serving)

        report = optimize_serving_throughput(
            HardwareTestbed(TPU_V4I, seed=11),
            build,
            target_latency_s=0.02,
            batch_candidates=(16, 64, 256),
            num_measurements=15,
        )
        assert report.feasible
        assert report.throughput_under_target > 1000
