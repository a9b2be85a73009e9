"""Tests for the weight-sharing super-networks (Figure 3 semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import CtrTaskConfig, CtrTeacher, VisionTaskConfig, VisionTeacher
from repro.nn import Adam
from repro.searchspace import (
    CnnSpaceConfig,
    DlrmSpaceConfig,
    cnn_search_space,
    dlrm_search_space,
)
from repro.supernet import (
    DlrmSuperNetwork,
    DlrmSupernetConfig,
    VisionSuperNetwork,
    VisionSupernetConfig,
)


def dlrm_setup(num_tables=2):
    space = dlrm_search_space(DlrmSpaceConfig(num_tables=num_tables, num_dense_stacks=2))
    config = DlrmSupernetConfig(num_tables=num_tables)
    net = DlrmSuperNetwork(config)
    teacher = CtrTeacher(CtrTaskConfig(num_tables=num_tables, batch_size=32))
    return space, net, teacher


class TestDlrmSupernet:
    def test_forward_shape(self):
        space, net, teacher = dlrm_setup()
        batch = teacher.next_batch()
        arch = space.default_architecture()
        logits = net(arch, batch.inputs)
        assert logits.shape == (32, 1)

    def test_any_sampled_arch_runs(self):
        space, net, teacher = dlrm_setup()
        rng = np.random.default_rng(0)
        batch = teacher.next_batch()
        for _ in range(10):
            arch = space.sample(rng)
            logits = net(arch, batch.inputs)
            assert np.all(np.isfinite(logits.data))

    def test_embedding_coarse_sharing_distinct_tables_per_vocab(self):
        _, net, _ = dlrm_setup()
        tables = net.embeddings[0]
        ids = {id(tbl.table) for tbl in tables.values()}
        assert len(ids) == len(tables)  # one table per vocab scale

    def test_embedding_fine_sharing_within_table(self):
        """Different widths at the same vocab scale share one table."""
        space, net, teacher = dlrm_setup()
        batch = teacher.next_batch()
        base = space.default_architecture()
        narrow = base.replaced(**{"emb0/width_delta": -2})
        wide = base.replaced(**{"emb0/width_delta": 2})
        before = net.embeddings[0][1.0].table.data.copy()
        for arch in (narrow, wide):
            net(arch, batch.inputs)
        np.testing.assert_allclose(net.embeddings[0][1.0].table.data, before)

    def test_low_rank_uses_separate_factors(self):
        space, net, teacher = dlrm_setup()
        batch = teacher.next_batch()
        base = space.default_architecture()
        lowrank = base.replaced(**{"dense1/low_rank": 0.5})
        full = net(base, batch.inputs)
        factored = net(lowrank, batch.inputs)
        assert not np.allclose(full.data, factored.data)

    def test_gradients_only_touch_active_vocab_table(self):
        space, net, teacher = dlrm_setup()
        batch = teacher.next_batch()
        arch = space.default_architecture()  # vocab scale 1.0
        net.zero_grad()
        net.loss(arch, batch.inputs, batch.labels).backward()
        assert net.embeddings[0][1.0].table.grad is not None
        assert net.embeddings[0][0.5].table.grad is None

    def test_training_reduces_loss(self):
        space, net, teacher = dlrm_setup()
        arch = space.default_architecture()
        opt = Adam(net.parameters(), lr=0.01)
        losses = []
        for _ in range(40):
            batch = teacher.next_batch()
            opt.zero_grad()
            loss = net.loss(arch, batch.inputs, batch.labels)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_quality_in_unit_interval(self):
        space, net, teacher = dlrm_setup()
        batch = teacher.next_batch()
        q = net.quality(space.default_architecture(), batch.inputs, batch.labels)
        assert 0.0 <= q <= 1.0

    def test_parameters_include_all_vocab_tables(self):
        _, net, _ = dlrm_setup(num_tables=2)
        params = net.parameters()
        table_ids = {
            id(tbl.table) for group in net.embeddings for tbl in group.values()
        }
        param_ids = {id(p) for p in params}
        assert table_ids <= param_ids

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DlrmSupernetConfig(base_embedding_width=8)
        with pytest.raises(ValueError):
            DlrmSupernetConfig(base_bottom_width=16)

    def test_depth_clamped_to_valid_range(self):
        space, net, teacher = dlrm_setup()
        batch = teacher.next_batch()
        shallow = space.default_architecture().replaced(**{"dense0/depth_delta": -3})
        logits = net(shallow, batch.inputs)  # base 2 - 3 clamps to 1 layer
        assert np.all(np.isfinite(logits.data))

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_forward_finite_for_random_arch(self, seed):
        space, net, teacher = dlrm_setup()
        batch = teacher.next_batch()
        arch = space.sample(np.random.default_rng(seed))
        assert np.all(np.isfinite(net(arch, batch.inputs).data))


def vision_setup(num_blocks=2):
    space = cnn_search_space(CnnSpaceConfig(num_blocks=num_blocks, include_resolution=False))
    net = VisionSuperNetwork(VisionSupernetConfig(num_blocks=num_blocks))
    teacher = VisionTeacher(VisionTaskConfig(batch_size=32))
    return space, net, teacher


class TestVisionSupernet:
    def test_forward_shape(self):
        space, net, teacher = vision_setup()
        batch = teacher.next_batch()
        logits = net(space.default_architecture(), batch.inputs)
        assert logits.shape == (32, 4)

    def test_any_sampled_arch_runs(self):
        space, net, teacher = vision_setup()
        rng = np.random.default_rng(3)
        batch = teacher.next_batch()
        for _ in range(10):
            arch = space.sample(rng)
            logits = net(arch, batch.inputs)
            assert np.all(np.isfinite(logits.data))

    def test_width_delta_changes_output(self):
        space, net, teacher = vision_setup()
        batch = teacher.next_batch()
        base = space.default_architecture()
        wider = base.replaced(**{"block0/width_delta": 4})
        assert not np.allclose(
            net(base, batch.inputs).data, net(wider, batch.inputs).data
        )

    def test_performance_only_decisions_do_not_change_quality_path(self):
        """Kernel/stride/reshaping/type only matter to the perf model."""
        space, net, teacher = vision_setup()
        batch = teacher.next_batch()
        base = space.default_architecture()
        variant = base.replaced(
            **{
                "block0/kernel": 7,
                "block0/stride": 2,
                "block0/reshaping": "space_to_depth",
                "block0/type": "fused_mbconv",
            }
        )
        np.testing.assert_allclose(
            net(base, batch.inputs).data, net(variant, batch.inputs).data
        )

    def test_se_ratio_zero_disables_gate(self):
        space, net, teacher = vision_setup()
        batch = teacher.next_batch()
        base = space.default_architecture()
        no_se = base.replaced(**{"block0/se_ratio": 0.0, "block1/se_ratio": 0.0})
        with_se = base.replaced(**{"block0/se_ratio": 1.0, "block1/se_ratio": 1.0})
        assert not np.allclose(
            net(no_se, batch.inputs).data, net(with_se, batch.inputs).data
        )

    def test_training_reduces_loss(self):
        space, net, teacher = vision_setup()
        arch = space.default_architecture()
        opt = Adam(net.parameters(), lr=0.005)
        losses = []
        for _ in range(40):
            batch = teacher.next_batch()
            opt.zero_grad()
            loss = net.loss(arch, batch.inputs, batch.labels)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_weight_sharing_gradient_overlap(self):
        """Two different candidates accumulate gradient into shared weights."""
        space, net, teacher = vision_setup()
        batch = teacher.next_batch()
        base = space.default_architecture()
        wide = base.replaced(**{"block0/width_delta": 4})
        net.zero_grad()
        net.loss(base, batch.inputs, batch.labels).backward()
        grad_base = net.blocks[0].expands.layers[0].weight.grad.copy()
        net.zero_grad()
        net.loss(wide, batch.inputs, batch.labels).backward()
        grad_wide = net.blocks[0].expands.layers[0].weight.grad.copy()
        overlap = (grad_base != 0) & (grad_wide != 0)
        assert overlap.any()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VisionSupernetConfig(base_width=16)
        with pytest.raises(ValueError):
            VisionSupernetConfig(base_depth=0)

    def test_quality_bounds(self):
        space, net, teacher = vision_setup()
        batch = teacher.next_batch()
        q = net.quality(space.default_architecture(), batch.inputs, batch.labels)
        assert 0.0 <= q <= 1.0
