"""Table 1: quality and two-stage training of the performance model.

A 2-layer, 512-neuron MLP predicts DLRM training (and serving)
performance.  Phase 1 pre-trains on simulator samples; phase 2
fine-tunes on 20 "hardware" measurements from the testbed.

Scaling note: the paper pre-trains on one million samples over the full
O(10^282) space; on CPU we use an 8-table slice of the space and 12k
samples.  The claims reproduced are the table's structure: sub-percent
NRMSE against the pre-training distribution, tens-of-percent NRMSE of
the pre-trained model against hardware, and a ~10x NRMSE reduction to
the low single digits from 20 fine-tuning measurements.

Beside each hardware NRMSE the table reports Kendall's tau of the same
predictions against the same measurements: a search only ever *ranks*
candidates with the model, so rank agreement is the number that says
whether a residual NRMSE matters.
"""

from __future__ import annotations

from scipy.stats import kendalltau

from repro.analysis import format_table
from repro.models import baseline_production_dlrm
from repro.models.timing import DlrmTimingHarness
from repro.perfmodel import (
    ArchitectureEncoder,
    PerformanceModel,
    TwoPhaseConfig,
    TwoPhaseTrainer,
    nrmse,
)
from repro.searchspace import DlrmSpaceConfig, dlrm_search_space

from .common import emit, emit_json

NUM_TABLES = 8
PRETRAIN_SAMPLES = 10_000
FINETUNE_SAMPLES = 20
EVAL_SAMPLES = 300


def evaluate(trainer, harness):
    """NRMSE and Kendall tau of both heads on fresh evaluation samples
    (the draw ``TwoPhaseTrainer.evaluate`` makes), as ``(train, serve)`` pairs."""
    archs, times = trainer.sample_dataset(EVAL_SAMPLES, harness.measure_deterministic)
    predicted = trainer.model.predict_times(archs)
    heads = [(predicted[:, head], times[:, head]) for head in (0, 1)]
    return (
        tuple(nrmse(p, t) for p, t in heads),
        tuple(float(kendalltau(p, t).statistic) for p, t in heads),
    )


def run():
    space = dlrm_search_space(DlrmSpaceConfig(num_tables=NUM_TABLES, num_dense_stacks=2))
    harness = DlrmTimingHarness(baseline_production_dlrm(num_tables=NUM_TABLES), seed=0)
    model = PerformanceModel(
        ArchitectureEncoder(space),
        hidden_sizes=(512, 512),
        size_fn=harness.model_size,
        seed=0,
    )
    trainer = TwoPhaseTrainer(
        model,
        space,
        simulate_fn=harness.simulate,
        measure_fn=harness.measure,
        config=TwoPhaseConfig(
            pretrain_epochs=60,
            finetune_epochs=200,
            finetune_lr=5e-5,
        ),
        seed=0,
    )
    pre_report = trainer.pretrain(PRETRAIN_SAMPLES)
    pretrain_on_hw, pretrain_tau = evaluate(trainer, harness)
    trainer.finetune(FINETUNE_SAMPLES)
    finetuned_on_hw, finetuned_tau = evaluate(trainer, harness)
    stats = {
        "space_log10": space.log10_size(),
        "pretrain_samples": PRETRAIN_SAMPLES,
        "nrmse_pretrain_insample": pre_report.nrmse_train_head,
        "finetune_samples": FINETUNE_SAMPLES,
        "nrmse_pretrained_on_hw": pretrain_on_hw[0],
        "nrmse_finetuned_on_hw": finetuned_on_hw[0],
        "nrmse_finetuned_on_hw_serve": finetuned_on_hw[1],
        "tau_pretrained_on_hw": pretrain_tau[0],
        "tau_pretrained_on_hw_serve": pretrain_tau[1],
        "tau_finetuned_on_hw": finetuned_tau[0],
        "tau_finetuned_on_hw_serve": finetuned_tau[1],
    }
    table = format_table(
        ["row", "ours", "paper"],
        [
            ["search space size (log10)", f"{stats['space_log10']:.1f}", "282 (full space)"],
            ["pretraining samples", stats["pretrain_samples"], "1,000,000"],
            [
                "NRMSE on pretraining samples",
                f"{stats['nrmse_pretrain_insample']:.2%}",
                "0.31% ~ 0.47%",
            ],
            ["finetuning samples", stats["finetune_samples"], "20"],
            [
                "NRMSE of pretrained model on measurements",
                f"{stats['nrmse_pretrained_on_hw']:.2%}",
                "14.7% ~ 42.9%",
            ],
            [
                "Kendall tau of pretrained model, train / serve",
                f"{stats['tau_pretrained_on_hw']:.4f} / {stats['tau_pretrained_on_hw_serve']:.4f}",
                "not reported",
            ],
            [
                "NRMSE of finetuned model on measurements",
                f"{stats['nrmse_finetuned_on_hw']:.2%}",
                "1.05% ~ 3.08%",
            ],
            [
                "Kendall tau of finetuned model, train / serve",
                f"{stats['tau_finetuned_on_hw']:.4f} / {stats['tau_finetuned_on_hw_serve']:.4f}",
                "not reported",
            ],
        ],
    )
    emit("table1_perfmodel", table)
    emit_json("table1_perfmodel", {"stats": stats})
    return stats


def test_table1_perfmodel(benchmark):
    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    # Tight fit against the pre-training distribution (paper: <0.5%).
    assert stats["nrmse_pretrain_insample"] < 0.02
    # Big systematic gap against hardware before fine-tuning.
    assert 0.10 < stats["nrmse_pretrained_on_hw"] < 0.60
    # Fine-tuning with 20 measurements lands in the low single digits...
    assert stats["nrmse_finetuned_on_hw"] < 0.06
    assert stats["nrmse_finetuned_on_hw_serve"] < 0.08
    # ...for roughly the 10x improvement Table 1 shows.
    improvement = stats["nrmse_pretrained_on_hw"] / stats["nrmse_finetuned_on_hw"]
    assert improvement > 4.0
    # Fine-tuning must not cost rank agreement (one seed: no tighter claim).
    assert stats["tau_finetuned_on_hw"] >= stats["tau_pretrained_on_hw"] - 0.02
    assert stats["tau_finetuned_on_hw_serve"] >= stats["tau_pretrained_on_hw_serve"] - 0.02
