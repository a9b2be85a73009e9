"""Tests for batches, synthetic teachers, and the data pipelines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    Batch,
    CtrTaskConfig,
    CtrTeacher,
    PipelineExhausted,
    PipelineProtocolError,
    SingleStepPipeline,
    TwoStreamPipeline,
    VisionTaskConfig,
    VisionTeacher,
)


class TestBatch:
    def test_size(self):
        b = Batch(0, {"x": np.ones((4, 2))}, np.zeros(4))
        assert b.size == 4

    def test_split(self):
        b = Batch(0, {"x": np.arange(8).reshape(4, 2)}, np.arange(4))
        first, second = b.split()
        assert first.size == 2 and second.size == 2
        np.testing.assert_array_equal(second.labels, [2, 3])

    def test_split_too_small(self):
        with pytest.raises(ValueError):
            Batch(0, {"x": np.ones((1, 1))}, np.zeros(1)).split()


class TestCtrTeacher:
    def test_batch_shapes(self):
        teacher = CtrTeacher(CtrTaskConfig(num_tables=3, batch_size=16))
        b = teacher.next_batch()
        assert b.inputs["dense"].shape == (16, 8)
        assert b.inputs["sparse"].shape == (16, 3)
        assert b.labels.shape == (16, 1)

    def test_unique_batch_ids(self):
        teacher = CtrTeacher(CtrTaskConfig())
        ids = [teacher.next_batch().batch_id for _ in range(5)]
        assert ids == [0, 1, 2, 3, 4]

    def test_labels_binary(self):
        teacher = CtrTeacher(CtrTaskConfig(batch_size=128))
        labels = teacher.next_batch().labels
        assert set(np.unique(labels)) <= {0.0, 1.0}

    def test_signal_is_learnable(self):
        """The planted signal is strong enough to beat chance."""
        cfg = CtrTaskConfig(batch_size=4096, seed=7)
        teacher = CtrTeacher(cfg)
        batch = teacher.next_batch()
        # The memorized logits alone should correlate with labels.
        memor = np.zeros(cfg.batch_size)
        for t in range(cfg.num_tables):
            memor += teacher._table_importance[t] * teacher._id_logits[
                t, batch.inputs["sparse"][:, t]
            ]
        predicted = (memor > 0).astype(float)
        assert (predicted == batch.labels[:, 0]).mean() > 0.55

    def test_deterministic_given_seed(self):
        a = CtrTeacher(CtrTaskConfig(seed=3)).next_batch()
        b = CtrTeacher(CtrTaskConfig(seed=3)).next_batch()
        np.testing.assert_array_equal(a.inputs["dense"], b.inputs["dense"])

    def test_sparse_ids_in_vocab(self):
        cfg = CtrTaskConfig(vocab_size=32, batch_size=256)
        batch = CtrTeacher(cfg).next_batch()
        assert batch.inputs["sparse"].max() < 32
        assert batch.inputs["sparse"].min() >= 0


class TestVisionTeacher:
    def test_batch_shapes(self):
        teacher = VisionTeacher(VisionTaskConfig(batch_size=8))
        b = teacher.next_batch()
        assert b.inputs["x"].shape == (8, 16)
        assert b.labels.shape == (8,)

    def test_labels_in_range(self):
        cfg = VisionTaskConfig(num_classes=5, batch_size=256)
        labels = VisionTeacher(cfg).next_batch().labels
        assert labels.min() >= 0 and labels.max() < 5

    def test_all_classes_appear(self):
        cfg = VisionTaskConfig(batch_size=512, seed=1)
        labels = VisionTeacher(cfg).next_batch().labels
        assert len(np.unique(labels)) == cfg.num_classes

    def test_noise_level(self):
        noisy = VisionTaskConfig(label_noise=0.5, batch_size=512, seed=2)
        clean = VisionTaskConfig(label_noise=0.0, batch_size=512, seed=2)
        nb = VisionTeacher(noisy).next_batch()
        cb = VisionTeacher(clean).next_batch()
        assert (nb.labels != cb.labels).mean() > 0.2


class TestSingleStepPipeline:
    def make(self, max_batches=None):
        teacher = CtrTeacher(CtrTaskConfig(batch_size=4))
        return SingleStepPipeline(teacher.next_batch, max_batches=max_batches)

    def test_each_batch_fresh(self):
        pipe = self.make()
        ids = {pipe.next_batch().batch_id for _ in range(10)}
        assert len(ids) == 10

    def test_policy_then_weights_allowed(self):
        pipe = self.make()
        batch = pipe.next_batch()
        pipe.mark_policy_use(batch)
        pipe.mark_weight_use(batch)  # no error

    def test_weights_before_policy_rejected(self):
        pipe = self.make()
        batch = pipe.next_batch()
        with pytest.raises(PipelineProtocolError, match="policy-before-weights"):
            pipe.mark_weight_use(batch)

    def test_double_policy_use_rejected(self):
        pipe = self.make()
        batch = pipe.next_batch()
        pipe.mark_policy_use(batch)
        with pytest.raises(PipelineProtocolError):
            pipe.mark_policy_use(batch)

    def test_double_weight_use_rejected(self):
        pipe = self.make()
        batch = pipe.next_batch()
        pipe.mark_policy_use(batch)
        pipe.mark_weight_use(batch)
        with pytest.raises(PipelineProtocolError, match="at most once"):
            pipe.mark_weight_use(batch)

    def test_unknown_batch_rejected(self):
        pipe = self.make()
        stranger = Batch(999, {"x": np.ones((2, 1))}, np.zeros(2))
        with pytest.raises(PipelineProtocolError, match="never issued"):
            pipe.mark_policy_use(stranger)

    def test_max_batches(self):
        pipe = self.make(max_batches=3)
        for _ in range(3):
            pipe.next_batch()
        assert pipe.exhausted()
        with pytest.raises(PipelineExhausted, match="exhausted"):
            pipe.next_batch()

    def test_exhaustion_is_not_stop_iteration(self):
        """Exhaustion must escape ``for`` loops and generators loudly.

        A bare ``StopIteration`` raised inside a generator is swallowed
        by the iteration protocol, silently truncating the consumer; the
        dedicated ``PipelineExhausted`` is a ``PipelineProtocolError``
        instead and propagates.
        """
        assert not issubclass(PipelineExhausted, StopIteration)
        assert issubclass(PipelineExhausted, PipelineProtocolError)
        pipe = self.make(max_batches=2)

        def consume_stream():
            while True:
                yield pipe.next_batch()

        seen = []
        with pytest.raises(PipelineExhausted):
            for batch in consume_stream():
                seen.append(batch.batch_id)
        assert len(seen) == 2  # both real batches arrived before the error

    def test_bookkeeping_evicted_on_full_consumption(self):
        pipe = self.make()
        batch = pipe.next_batch()
        assert pipe.outstanding_batches == 1
        pipe.mark_policy_use(batch)
        assert pipe.outstanding_batches == 1
        pipe.mark_weight_use(batch)
        assert pipe.outstanding_batches == 0

    def test_long_stream_memory_stays_bounded(self):
        """10k fully-consumed batches leave zero bookkeeping behind.

        Regression test for the unbounded ``_state`` dict: the pipeline
        must hold O(outstanding batches) state, not O(stream length).
        """
        teacher = CtrTeacher(CtrTaskConfig(batch_size=2))
        pipe = SingleStepPipeline(teacher.next_batch)
        for _ in range(10_000):
            batch = pipe.next_batch()
            pipe.mark_policy_use(batch)
            pipe.mark_weight_use(batch)
        assert pipe.batches_issued == 10_000
        assert pipe.outstanding_batches == 0
        assert pipe.peak_outstanding == 1

    def test_consumed_batch_reuse_still_detected_after_eviction(self):
        """Eviction must not forget that a batch was fully consumed."""
        pipe = self.make()
        batch = pipe.next_batch()
        pipe.mark_policy_use(batch)
        pipe.mark_weight_use(batch)
        with pytest.raises(PipelineProtocolError, match="fully consumed"):
            pipe.mark_policy_use(batch)
        with pytest.raises(PipelineProtocolError, match="at most once"):
            pipe.mark_weight_use(batch)

    def test_policy_error_reports_actual_state(self):
        pipe = self.make()
        batch = pipe.next_batch()
        pipe.mark_policy_use(batch)
        with pytest.raises(PipelineProtocolError, match="state='policy'"):
            pipe.mark_policy_use(batch)

    def test_reissued_batch_rejected(self):
        fixed = Batch(0, {"x": np.ones((2, 1))}, np.zeros(2))
        pipe = SingleStepPipeline(lambda: fixed)
        pipe.next_batch()
        with pytest.raises(PipelineProtocolError, match="re-issued"):
            pipe.next_batch()

    def test_batches_issued_counter(self):
        pipe = self.make()
        for _ in range(4):
            pipe.next_batch()
        assert pipe.batches_issued == 4


class TestNextShard:
    """The per-core split of one stream: a step's batches, one per core."""

    def make(self, max_batches=None, seed=0):
        teacher = CtrTeacher(CtrTaskConfig(batch_size=4, seed=seed))
        return SingleStepPipeline(teacher.next_batch, max_batches=max_batches)

    def test_global_single_use(self):
        pipe = self.make()
        ids = [batch.batch_id for _ in range(5) for batch in pipe.next_shard(4)]
        assert len(set(ids)) == 20

    def test_a_shard_is_the_next_batches_of_the_stream(self):
        sharded, sequential = self.make(seed=3), self.make(seed=3)
        shard = [batch.batch_id for batch in sharded.next_shard(3)]
        assert shard == [sequential.next_batch().batch_id for _ in range(3)]
        assert sharded.batches_issued == sequential.batches_issued == 3
        with pytest.raises(ValueError):
            sharded.next_shard(0)

    def test_cores_are_served_in_stream_order(self):
        pipe = self.make()
        shards = [[batch.batch_id for batch in pipe.next_shard(3)] for _ in range(4)]
        flat = [batch_id for shard in shards for batch_id in shard]
        assert flat == sorted(flat)

    def test_every_core_batch_is_counted_and_outstanding(self):
        pipe = self.make()
        for _ in range(3):
            pipe.next_shard(4)
        assert pipe.batches_issued == 12
        assert pipe.outstanding_batches == pipe.peak_outstanding == 12

    def test_each_core_batch_obeys_policy_before_weights(self):
        pipe = self.make()
        shard = pipe.next_shard(3)
        with pytest.raises(PipelineProtocolError, match="policy-before-weights"):
            pipe.mark_weight_use(shard[1])
        for batch in shard:
            pipe.mark_policy_use(batch)
        for batch in shard:
            pipe.mark_weight_use(batch)
        assert pipe.outstanding_batches == 0

    def test_exhaustion_mid_shard_is_loud(self):
        pipe = self.make(max_batches=6)
        assert len(pipe.next_shard(4)) == 4
        with pytest.raises(PipelineExhausted):
            pipe.next_shard(4)
        assert pipe.batches_issued == 6

    def test_resumed_stream_hands_out_the_same_next_shard(self):
        pipe = self.make(seed=3)
        for _ in range(2):
            for batch in pipe.next_shard(4):
                pipe.mark_policy_use(batch)
                pipe.mark_weight_use(batch)
        resumed = self.make(seed=3)
        resumed.load_state_dict(pipe.state_dict())
        for want, got in zip(pipe.next_shard(4), resumed.next_shard(4)):
            assert want.batch_id == got.batch_id
            np.testing.assert_array_equal(want.labels, got.labels)
            for name in want.inputs:
                np.testing.assert_array_equal(want.inputs[name], got.inputs[name])


class TestTwoStreamPipeline:
    def make(self, train=3, valid=2):
        teacher = CtrTeacher(CtrTaskConfig(batch_size=4))
        return TwoStreamPipeline(teacher.next_batch, train_batches=train, valid_batches=valid)

    def test_splits_are_disjoint(self):
        pipe = self.make()
        train_ids = {pipe.next_train_batch().batch_id for _ in range(3)}
        valid_ids = {pipe.next_valid_batch().batch_id for _ in range(2)}
        assert not (train_ids & valid_ids)

    def test_reuse_counted(self):
        pipe = self.make(train=2, valid=2)
        for _ in range(5):
            pipe.next_train_batch()
        assert pipe.train_reuses == 2

    def test_valid_cycle(self):
        pipe = self.make(train=2, valid=2)
        first = pipe.next_valid_batch().batch_id
        pipe.next_valid_batch()
        again = pipe.next_valid_batch().batch_id
        assert first == again
        assert pipe.valid_reuses == 1

    def test_sizes(self):
        pipe = self.make(train=4, valid=3)
        assert pipe.train_size == 4 and pipe.valid_size == 3

    def test_validation(self):
        teacher = CtrTeacher(CtrTaskConfig())
        with pytest.raises(ValueError):
            TwoStreamPipeline(teacher.next_batch, train_batches=0, valid_batches=1)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 20))
    @settings(max_examples=25, deadline=None)
    def test_train_cursor_never_escapes_split(self, train, valid, steps):
        teacher = CtrTeacher(CtrTaskConfig(batch_size=4))
        pipe = TwoStreamPipeline(teacher.next_batch, train, valid)
        train_ids = {pipe.next_train_batch().batch_id for _ in range(steps + 1)}
        assert train_ids <= set(range(train))
