"""Tests for the two-phase hybrid performance model (Section 6.2)."""

import numpy as np
import pytest

from repro.models import baseline_production_dlrm
from repro.models.timing import DlrmTimingHarness
from repro.perfmodel import (
    ArchitectureEncoder,
    PerformanceModel,
    TwoPhaseConfig,
    TwoPhaseTrainer,
    nrmse,
    rmse,
)
from repro.searchspace import Decision, DlrmSpaceConfig, SearchSpace, dlrm_search_space


def small_setup(num_tables=3, seed=0):
    space = dlrm_search_space(DlrmSpaceConfig(num_tables=num_tables, num_dense_stacks=2))
    base = baseline_production_dlrm(num_tables=num_tables)
    harness = DlrmTimingHarness(base, seed=seed)
    encoder = ArchitectureEncoder(space)
    model = PerformanceModel(
        encoder, hidden_sizes=(64, 64), size_fn=harness.model_size, seed=seed
    )
    return space, harness, model


class TestMetrics:
    def test_rmse_known(self):
        assert rmse(np.array([1.0, 3.0]), np.array([2.0, 2.0])) == pytest.approx(1.0)

    def test_nrmse_normalizes(self):
        a = nrmse(np.array([1.1]), np.array([1.0]))
        b = nrmse(np.array([1100.0]), np.array([1000.0]))
        assert a == pytest.approx(b)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(2), np.zeros(3))

    def test_nrmse_zero_targets(self):
        with pytest.raises(ValueError):
            nrmse(np.array([1.0]), np.array([0.0]))


class TestArchitectureEncoder:
    def test_feature_count(self):
        space = SearchSpace(
            "s", [Decision("a", (0, 1, 2)), Decision("b", ("x", "y"))]
        )
        enc = ArchitectureEncoder(space)
        # a: 3 one-hot + 1 numeric, b: 2 one-hot.
        assert enc.num_features == 6

    def test_encoding_is_onehot_plus_numeric(self):
        space = SearchSpace("s", [Decision("a", (0, 2, 4))])
        enc = ArchitectureEncoder(space)
        vec = enc.encode_batch([space.architecture_from_indices([1])])[0]
        np.testing.assert_allclose(vec, [0, 1, 0, 0.5])

    def test_distinct_archs_distinct_encodings(self):
        space, _, _ = small_setup()
        enc = ArchitectureEncoder(space)
        rng = np.random.default_rng(0)
        archs = [space.sample(rng) for _ in range(20)]
        encodings = enc.encode_batch(archs)
        assert encodings.shape == (20, enc.num_features)
        unique = {tuple(row) for row in encodings}
        assert len(unique) > 15  # collisions only if archs collide

    def test_batch_matches_single(self):
        space, _, _ = small_setup()
        enc = ArchitectureEncoder(space)
        archs = [space.default_architecture(), space.sample(np.random.default_rng(1))]
        np.testing.assert_allclose(enc.encode_batch(archs)[1], enc.encode_batch(archs[1:])[0])


class TestPerformanceModel:
    def test_predict_returns_all_metrics(self):
        space, harness, model = small_setup()
        metrics = model.predict(space.default_architecture())
        assert set(metrics) == {"train_step_time", "serving_latency", "model_size"}
        assert metrics["train_step_time"] > 0

    def test_size_head_is_analytical(self):
        """The model-size output needs no learning: it is exact."""
        space, harness, model = small_setup()
        arch = space.default_architecture()
        assert model.predict(arch)["model_size"] == harness.model_size(arch)

    def test_no_size_fn(self):
        space, harness, _ = small_setup()
        model = PerformanceModel(ArchitectureEncoder(space), hidden_sizes=(16,))
        assert "model_size" not in model.predict(space.default_architecture())

    def test_normalization_roundtrip(self):
        space, _, model = small_setup()
        model.set_normalization(np.array([-5.0, -6.0]), np.array([0.5, 0.7]))
        logs = np.array([[-5.5, -5.3]])
        np.testing.assert_allclose(
            model.normalize_targets(logs) * model.log_std + model.log_mean, logs
        )

    def test_degenerate_std_guarded(self):
        space, _, model = small_setup()
        model.set_normalization(np.zeros(2), np.zeros(2))
        assert np.all(model.log_std > 0)


class TestTwoPhaseTrainer:
    def test_pretraining_fits_simulator(self):
        space, harness, model = small_setup()
        trainer = TwoPhaseTrainer(
            model,
            space,
            simulate_fn=harness.simulate,
            measure_fn=harness.measure,
            config=TwoPhaseConfig(pretrain_epochs=40),
            seed=0,
        )
        report = trainer.pretrain(800)
        assert report.num_samples == 800
        assert report.nrmse_train_head < 0.08
        assert report.nrmse_serve_head < 0.08

    def test_finetuning_closes_hardware_gap(self):
        """The Table 1 effect: big NRMSE drop from ~20 measurements."""
        space, harness, model = small_setup(seed=1)
        trainer = TwoPhaseTrainer(
            model,
            space,
            simulate_fn=harness.simulate,
            measure_fn=harness.measure,
            config=TwoPhaseConfig(
                pretrain_epochs=40, finetune_epochs=100, finetune_lr=5e-5
            ),
            seed=1,
        )
        trainer.pretrain(800)
        before = trainer.evaluate(100, harness.measure_deterministic)
        trainer.finetune(20)
        after = trainer.evaluate(100, harness.measure_deterministic)
        assert after[0] < before[0] / 2
        # The test-scale model (tiny MLP, 800 samples) retains more
        # generalization error than the bench-scale run, which lands at
        # the paper's 1-3%; see benchmarks/bench_table1_perfmodel.py.
        assert after[0] < 0.12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TwoPhaseConfig(pretrain_epochs=0)
        with pytest.raises(ValueError):
            TwoPhaseConfig(finetune_lr=0.0)

    def test_sample_dataset_shapes(self):
        space, harness, model = small_setup()
        trainer = TwoPhaseTrainer(
            model, space, harness.simulate, harness.measure, seed=0
        )
        archs, times = trainer.sample_dataset(5, harness.simulate)
        assert len(archs) == 5
        assert times.shape == (5, 2)
        assert np.all(times > 0)
