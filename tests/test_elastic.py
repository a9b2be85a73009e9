"""Once-for-all elastic supernets: substrate, schedule, artifact, workflow.

Covers the shared elastic substrate (:mod:`repro.supernet.elastic`), the
progressive-shrinking schedule, the versioned elastic artifact, the
policy-only batch release protocol, the two-phase engines
(:class:`ElasticTraining` / :class:`SpecializationSearch`), their
bit-identity on a worker pool, and the tiny end-to-end
elastic-train -> specialize -> fleet smoke (the tier-1 half of the CI
contract; the speedup half lives in ``benchmarks/bench_elastic.py``).
"""

import json

import numpy as np
import pytest

from repro.core import ElasticTraining, SearchConfig, SpecializationSearch
from repro.core.engine.worker import build_supernet_from_spec, worker_spec_for
from repro.data import (
    CtrTaskConfig,
    CtrTeacher,
    PipelineProtocolError,
    SequenceTaskConfig,
    SequenceTeacher,
    SingleStepPipeline,
)
from repro.hardware import PLATFORMS, platform
from repro.nn import Tensor
from repro.runtime import (
    CheckpointError,
    load_elastic_artifact,
    restore_elastic_supernet,
    save_elastic_artifact,
)
from repro.searchspace import (
    DlrmSpaceConfig,
    VitSpaceConfig,
    dlrm_search_space,
    vit_search_space,
)
from repro.supernet import (
    DlrmSuperNetwork,
    DlrmSupernetConfig,
    ElasticLayerStack,
    ElasticMlp,
    ShrinkPhase,
    ShrinkSchedule,
    TransformerSuperNetwork,
    TransformerSupernetConfig,
    elastic_rank,
    elastic_width,
)

NUM_TABLES = 2


def build_space():
    return dlrm_search_space(
        DlrmSpaceConfig(num_tables=NUM_TABLES, num_dense_stacks=2)
    )


def build_training(steps=6, seed=0, schedule=None, backend=None, workers=None):
    teacher = CtrTeacher(
        CtrTaskConfig(num_tables=NUM_TABLES, batch_size=16, seed=seed)
    )
    return ElasticTraining(
        build_space(),
        DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES, seed=seed)),
        SingleStepPipeline(teacher.next_batch),
        schedule=schedule or ShrinkSchedule.default(steps),
        config=SearchConfig(
            steps=steps, num_cores=2, warmup_steps=0, seed=seed,
            backend=backend, workers=workers,
        ),
    )


# ----------------------------------------------------------------------
# Substrate primitives
# ----------------------------------------------------------------------
class TestElasticPrimitives:
    def test_elastic_width(self):
        assert elastic_width(64, 0, 8) == 64
        assert elastic_width(64, 2, 8) == 80
        assert elastic_width(64, -7, 8) == 8  # clamps to one quantum
        assert elastic_width(64, -7, 8, minimum=16) == 16

    def test_elastic_rank_quantized_and_clamped(self):
        assert elastic_rank(0.5, 64, 8) == 32
        assert elastic_rank(0.01, 64, 8) == 8  # floor at one quantum
        assert elastic_rank(2.0, 64, 8) == 64  # never above full rank
        assert elastic_rank(0.3, 10) == 3  # default quantum of 1

    def test_stack_active_prefix(self):
        stack = ElasticLayerStack([ElasticLayerStack.__new__(ElasticLayerStack)
                                   for _ in range(3)])
        assert stack.max_depth == 3
        assert stack.active(2) == stack.layers[:2]
        assert stack.active(3) == stack.layers

    @pytest.mark.parametrize("depth", [0, 4, -1])
    def test_stack_rejects_out_of_range_depth(self, depth):
        stack = ElasticLayerStack([object(), object(), object()])
        with pytest.raises(ValueError, match="active depth"):
            stack.active(depth)

    def test_stack_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one layer"):
            ElasticLayerStack([])

    def test_mlp_rejects_oversized_width(self):
        mlp = ElasticMlp(8, 16, 2, np.random.default_rng(0))
        x = Tensor(np.ones((4, 8)))
        with pytest.raises(ValueError, match="active_width"):
            mlp.forward(x, 24, 1, 1.0)

    def test_mlp_full_vs_lowrank_paths(self):
        mlp = ElasticMlp(8, 16, 2, np.random.default_rng(0), width_increment=4)
        x = Tensor(np.random.default_rng(1).normal(size=(4, 8)).astype(np.float32))
        full = mlp.forward(x, 16, 2, 1.0)
        factored = mlp.forward(x, 16, 2, 0.25)
        assert full.shape == (4, 16) and factored.shape == (4, 16)
        assert not np.allclose(full.data, factored.data)

    def test_mlp_params_cover_both_paths(self):
        mlp = ElasticMlp(8, 16, 3, np.random.default_rng(0))
        both = len(mlp.full.parameters()) + len(mlp.lowrank.parameters())
        assert both > 0
        assert len(mlp.parameters()) == both


# ----------------------------------------------------------------------
# Progressive-shrinking schedule
# ----------------------------------------------------------------------
class TestShrinkSchedule:
    def test_default_boundaries(self):
        schedule = ShrinkSchedule.default(30)
        assert [p.start_step for p in schedule.phases] == [0, 10, 20]
        steps = (0, 9, 10, 20, 10_000)
        names = [schedule.phases[schedule.phase_index(step)].name for step in steps]
        assert names == ["full", "full", "widths", "depths", "depths"]

    def test_free_tags_cumulative(self):
        schedule = ShrinkSchedule.default(30)
        assert schedule.free_tags_at(0) == ()
        assert "width" in schedule.free_tags_at(10)
        assert "depth" not in schedule.free_tags_at(10)
        # Depth phase keeps the width-like freedoms.
        freed = schedule.free_tags_at(20)
        assert "width" in freed and "depth" in freed

    def test_space_at_pins_to_baseline(self):
        space = build_space()
        schedule = ShrinkSchedule.default(30)
        rng = np.random.default_rng(0)
        # Full phase: every managed decision is pinned to its baseline,
        # so every sample is the baseline architecture.
        restricted = schedule.space_at(0, space)
        baseline = space.default_architecture()
        for _ in range(5):
            arch = restricted.sample(rng)
            assert dict(arch) == dict(baseline)
        # Width phase: widths vary, depths stay pinned.
        widths = schedule.space_at(10, space)
        samples = [widths.sample(rng) for _ in range(20)]
        assert any(a["emb0/width_delta"] != 0 for a in samples)
        assert all(a["dense0/depth_delta"] == 0 for a in samples)
        # Depth phase: nothing pinned -> the original space comes back.
        assert schedule.space_at(20, space) is space

    def test_space_at_keeps_full_decision_set(self):
        """Pinned spaces keep every decision (constant rng consumption)."""
        space = build_space()
        restricted = ShrinkSchedule.default(30).space_at(0, space)
        assert [d.name for d in restricted.decisions] == [
            d.name for d in space.decisions
        ]

    def test_space_cache_reused_within_phase(self):
        space = build_space()
        schedule = ShrinkSchedule.default(30)
        assert schedule.space_at(1, space) is schedule.space_at(9, space)
        assert schedule.space_at(1, space) is not schedule.space_at(11, space)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one phase"):
            ShrinkSchedule(())
        with pytest.raises(ValueError, match="start at step 0"):
            ShrinkSchedule((ShrinkPhase("late", 5),))
        with pytest.raises(ValueError, match="strictly increasing"):
            ShrinkSchedule((ShrinkPhase("a", 0), ShrinkPhase("b", 0)))
        with pytest.raises(ValueError, match="unique"):
            ShrinkSchedule((ShrinkPhase("a", 0), ShrinkPhase("a", 3)))
        with pytest.raises(ValueError, match="non-empty"):
            ShrinkPhase("", 0)
        with pytest.raises(ValueError, match=">= 0"):
            ShrinkPhase("a", -1)
        with pytest.raises(ValueError, match="total_steps"):
            ShrinkSchedule.default(0)

    def test_payload_round_trip_and_identity(self):
        schedule = ShrinkSchedule.default(30)
        clone = ShrinkSchedule.from_payload(schedule.describe())
        assert clone == schedule
        other = ShrinkSchedule((ShrinkPhase("full", 0),))
        assert other != schedule
        assert "full@0" in repr(schedule)


# ----------------------------------------------------------------------
# Satellite 1: transformer on the stacked-scoring mixin
# ----------------------------------------------------------------------
class TestTransformerStackedScoring:
    def setup_method(self):
        self.space = vit_search_space(VitSpaceConfig(num_tfm_blocks=1))
        self.net = TransformerSuperNetwork(
            TransformerSupernetConfig(num_blocks=1)
        )
        teacher = SequenceTeacher(SequenceTaskConfig(seq_len=8, batch_size=16))
        self.batches = [teacher.next_batch() for _ in range(3)]

    def test_quality_many_matches_per_batch(self):
        arch = self.space.default_architecture()
        stacked = self.net.quality_many(
            arch,
            [b.inputs for b in self.batches],
            [b.labels for b in self.batches],
        )
        singles = [
            self.net.quality(arch, b.inputs, b.labels) for b in self.batches
        ]
        np.testing.assert_allclose(stacked, singles)

    def test_loss_many_matches_mean_of_losses(self):
        arch = self.space.default_architecture()
        stacked = self.net.loss_many(
            arch,
            [b.inputs for b in self.batches],
            [b.labels for b in self.batches],
        )
        singles = [
            float(self.net.loss(arch, b.inputs, b.labels).data)
            for b in self.batches
        ]
        np.testing.assert_allclose(float(stacked.data), np.mean(singles))

    def test_worker_spec_round_trips(self):
        rebuilt = build_supernet_from_spec(worker_spec_for(self.net))
        assert type(rebuilt) is TransformerSuperNetwork
        arch = self.space.default_architecture()
        batch = self.batches[0]
        rebuilt.load_state_dict(self.net.state_dict())
        assert rebuilt.quality(arch, batch.inputs, batch.labels) == (
            self.net.quality(arch, batch.inputs, batch.labels)
        )

    def test_blocks_are_elastic_stacks(self):
        assert all(
            isinstance(stack, ElasticLayerStack) for stack in self.net.blocks
        )


# ----------------------------------------------------------------------
# Policy-only batch release
# ----------------------------------------------------------------------
class TestPipelineRelease:
    def _pipeline(self):
        teacher = CtrTeacher(CtrTaskConfig(num_tables=2, batch_size=8, seed=0))
        return SingleStepPipeline(teacher.next_batch)

    def test_release_after_policy_use(self):
        pipeline = self._pipeline()
        (batch,) = pipeline.next_shard(1)
        pipeline.mark_policy_use(batch)
        pipeline.release(batch)
        # Released batches are out of the protocol entirely.
        with pytest.raises(PipelineProtocolError):
            pipeline.mark_weight_use(batch)

    def test_release_before_policy_use_rejected(self):
        pipeline = self._pipeline()
        (batch,) = pipeline.next_shard(1)
        with pytest.raises(PipelineProtocolError, match="policy"):
            pipeline.release(batch)

    def test_release_unknown_batch_rejected(self):
        pipeline = self._pipeline()
        teacher = CtrTeacher(CtrTaskConfig(num_tables=2, batch_size=8, seed=9))
        with pytest.raises(PipelineProtocolError):
            pipeline.release(teacher.next_batch())


# ----------------------------------------------------------------------
# Elastic artifact
# ----------------------------------------------------------------------
class TestElasticArtifact:
    def _save(self, tmp_path, seed=0):
        training = build_training(steps=2, seed=seed)
        training.run()
        space = build_space()
        return training, save_elastic_artifact(
            tmp_path / "artifact", training.supernet, space,
            training.schedule, trained_steps=2, seed=seed,
        )

    def test_round_trip(self, tmp_path):
        training, saved = self._save(tmp_path)
        loaded = load_elastic_artifact(tmp_path / "artifact")
        assert loaded.weights_sha == saved.weights_sha
        assert loaded.space_name == "dlrm"
        assert loaded.trained_steps == 2
        assert ShrinkSchedule.from_payload(loaded.schedule) == training.schedule

        fresh = DlrmSuperNetwork(
            DlrmSupernetConfig(num_tables=NUM_TABLES, seed=123)
        )
        restore_elastic_supernet(tmp_path / "artifact", fresh, build_space())
        trained = training.supernet.state_dict()
        for name, array in fresh.state_dict().items():
            np.testing.assert_array_equal(array, trained[name])

    def test_a_float64_artifact_is_refused_naming_its_format(self, tmp_path):
        # Artifacts written before the weights were float32 are format 1:
        # refused by that number, with no conversion shim; and float64
        # weights never load into float32 parameters silently.
        training, _ = self._save(tmp_path)
        path = tmp_path / "artifact" / "ARTIFACT.json"
        manifest = json.loads(path.read_text())
        assert manifest["format"] == 2
        path.write_text(json.dumps({**manifest, "format": 1}))
        fresh = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES))
        with pytest.raises(CheckpointError, match="unsupported artifact format 1 \\(expected 2\\)"):
            restore_elastic_supernet(tmp_path / "artifact", fresh, build_space())
        widened = {k: v.astype(np.float64) for k, v in training.supernet.state_dict().items()}
        with pytest.raises(TypeError, match="a float64 array for a float32 parameter"):
            fresh.load_state_dict(widened)

    def test_missing_artifact(self, tmp_path):
        with pytest.raises(CheckpointError, match="missing"):
            load_elastic_artifact(tmp_path / "nope")

    def test_corrupt_manifest(self, tmp_path):
        _, saved = self._save(tmp_path)
        (tmp_path / "artifact" / "ARTIFACT.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_elastic_artifact(tmp_path / "artifact")

    def test_wrong_space_rejected(self, tmp_path):
        self._save(tmp_path)
        other = dlrm_search_space(
            DlrmSpaceConfig(num_tables=4, num_dense_stacks=2)
        )
        supernet = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=4))
        with pytest.raises(CheckpointError, match="cannot specialize"):
            restore_elastic_supernet(tmp_path / "artifact", supernet, other)

    def test_resave_replaces_in_place(self, tmp_path):
        _, first = self._save(tmp_path, seed=0)
        training = build_training(steps=3, seed=1)
        training.run()
        second = save_elastic_artifact(
            tmp_path / "artifact", training.supernet, build_space(),
            training.schedule, trained_steps=3, seed=1,
        )
        assert second.weights_sha != first.weights_sha
        assert load_elastic_artifact(tmp_path / "artifact").trained_steps == 3


# ----------------------------------------------------------------------
# Two-phase engines
# ----------------------------------------------------------------------
class TestElasticTraining:
    def test_full_phase_trains_baseline_only(self):
        schedule = ShrinkSchedule.default(30)  # steps 0..5 all in "full"
        training = build_training(steps=4, schedule=schedule)
        result = training.run()
        baseline = list(training.space.indices_of(
            training.space.default_architecture()
        ))
        for record in result.history:
            for candidate in record.candidates:
                indices = training.space.indices_of(candidate.architecture)
                assert list(indices) == baseline

    def test_phases_widen_sampling(self):
        training = build_training(steps=9)  # boundaries at 3 and 6
        result = training.run()
        def varied(records, name):
            return any(
                c.architecture[name] != training.space.default_architecture()[name]
                for r in records for c in r.candidates
            )
        early, mid, late = result.history[:3], result.history[3:6], result.history[6:]
        assert not varied(early, "emb0/width_delta")
        assert varied(mid + late, "emb0/width_delta")
        assert not varied(early + mid, "dense0/depth_delta")

    def test_weights_actually_move(self):
        training = build_training(steps=3)
        before = {
            name: array.copy()
            for name, array in training.supernet.state_dict().items()
        }
        training.run()
        moved = any(
            not np.array_equal(array, before[name])
            for name, array in training.supernet.state_dict().items()
        )
        assert moved

    def test_reward_is_quality(self):
        result = build_training(steps=2).run()
        for record in result.history:
            for candidate in record.candidates:
                assert candidate.reward == candidate.quality

    def test_backend_bit_identity(self):
        serial = build_training(steps=4, backend="serial").run()
        pooled = build_training(steps=4, backend="processes", workers=2).run()
        np.testing.assert_array_equal(serial.rewards(), pooled.rewards())
        assert serial.batches_used == pooled.batches_used


class TestSpecialization:
    @pytest.fixture()
    def artifact_dir(self, tmp_path):
        training = build_training(steps=4)
        training.run()
        save_elastic_artifact(
            tmp_path / "artifact", training.supernet, build_space(),
            training.schedule, trained_steps=4, seed=0,
        )
        return tmp_path / "artifact"

    def _build(self, artifact_dir, steps=4, backend=None, workers=None):
        from repro.service.jobs import specialization_builder

        space, factory = specialization_builder(
            artifact_dir, "tpu_v4", steps, 0, backend=backend, workers=workers
        )
        return space, factory()

    def test_weights_frozen_during_search(self, artifact_dir):
        space, search = self._build(artifact_dir)
        before = {
            name: array.copy()
            for name, array in search.supernet.state_dict().items()
        }
        search.run()
        for name, array in search.supernet.state_dict().items():
            np.testing.assert_array_equal(array, before[name])

    def test_policy_actually_learns(self, artifact_dir):
        space, search = self._build(artifact_dir, steps=6)
        result = search.run()
        entropies = result.entropies()
        assert entropies[-1] < entropies[0]

    def test_no_outstanding_batches(self, artifact_dir):
        """Released batches: the policy-only engine leaks no bookkeeping."""
        space, search = self._build(artifact_dir)
        search.run()
        assert not search.pipeline._outstanding

    def test_backend_bit_identity(self, artifact_dir):
        _, serial = self._build(artifact_dir, backend="serial")
        _, pooled = self._build(artifact_dir, backend="processes", workers=2)
        a, b = serial.run(), pooled.run()
        np.testing.assert_array_equal(a.rewards(), b.rewards())
        assert list(a.final_architecture.values()) == list(
            b.final_architecture.values()
        )


# ----------------------------------------------------------------------
# Satellite 5 (tier-1 half): tiny end-to-end workflow through the CLI
# ----------------------------------------------------------------------
class TestEndToEndWorkflow:
    def test_train_specialize_fleet(self, tmp_path, capsys):
        from repro.cli import main

        art = tmp_path / "artifact"
        assert main([
            "elastic-train", "--steps", "4", "--seed", "0",
            "--artifact-dir", str(art),
        ]) == 0
        out = capsys.readouterr().out
        assert "artifact:" in out and "weights sha256" in out

        assert main([
            "specialize", "--artifact", str(art),
            "--platform", "v100", "--steps", "3", "--seed", "0",
        ]) == 0
        assert "gpu_v100" in capsys.readouterr().out

        assert main([
            "fleet", "--artifact", str(art), "--steps", "2", "--seed", "0",
        ]) == 0
        out = capsys.readouterr().out
        for name in PLATFORMS:
            assert name in out
        assert "Pareto front" in out

    def test_fleet_produces_entry_per_platform(self, tmp_path):
        from repro.service.jobs import fleet_sweep

        training = build_training(steps=3)
        training.run()
        art = tmp_path / "artifact"
        save_elastic_artifact(
            art, training.supernet, build_space(), training.schedule,
            trained_steps=3, seed=0,
        )
        entries = fleet_sweep(art, steps=2, seed=0)
        assert [e.platform for e in entries] == list(PLATFORMS)
        assert any(e.pareto for e in entries)
        for entry in entries:
            assert entry.serving_latency > 0
            assert entry.model_size > 0
            assert len(entry.indices) == len(build_space().decisions)

    def test_fleet_validates_every_platform_before_searching(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        training = build_training(steps=3)
        training.run()
        art = tmp_path / "artifact"
        save_elastic_artifact(
            art, training.supernet, build_space(), training.schedule,
            trained_steps=3, seed=0,
        )
        built = []
        construct = SpecializationSearch.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(SpecializationSearch, "__init__", counting_init)
        assert main([
            "fleet", "--artifact", str(art), "--steps", "2",
            "--platforms", "tpu_v4", "gpu_v100", "bogus",
        ]) == 2
        assert built == []  # refused before the first search was built
        assert "'bogus'" in capsys.readouterr().err

    def test_unknown_platform_enumerates_registry(self):
        with pytest.raises(ValueError) as err:
            platform("hal9000")
        message = str(err.value)
        for name in PLATFORMS:
            assert name in message
        assert "aliases" in message

    def test_platform_aliases(self):
        assert platform("V100").name == "gpu_v100"
        assert platform(" tpu_v4 ").name == "tpu_v4"
        assert platform("v4i").name == "tpu_v4i"
        cfg = platform("tpu_v4")
        assert platform(cfg) is cfg
