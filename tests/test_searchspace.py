"""Tests for search-space primitives and the three concrete spaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.searchspace import (
    Architecture,
    CHOICES_PER_BLOCK,
    CHOICES_PER_TFM_BLOCK,
    CnnSpaceConfig,
    Decision,
    DlrmSpaceConfig,
    SearchSpace,
    VitSpaceConfig,
    cnn_search_space,
    dlrm_search_space,
    hybrid_vit_search_space,
    per_block_cardinalities,
    table5_size_rows,
    vit_search_space,
)


class TestDecision:
    def test_basic(self):
        d = Decision("k", (3, 5, 7))
        assert d.num_choices == 3
        assert d.index_of(5) == 1

    def test_index_of_missing(self):
        with pytest.raises(ValueError):
            Decision("k", (3, 5)).index_of(7)

    def test_empty_choices_rejected(self):
        with pytest.raises(ValueError):
            Decision("k", ())

    def test_duplicate_choices_rejected(self):
        with pytest.raises(ValueError):
            Decision("k", (3, 3))


class TestArchitecture:
    def test_mapping_interface(self):
        a = Architecture({"x": 1, "y": "relu"})
        assert a["x"] == 1
        assert set(a) == {"x", "y"}
        assert len(a) == 2

    def test_equality_and_hash(self):
        a = Architecture({"x": 1})
        b = Architecture({"x": 1})
        assert a == b and hash(a) == hash(b)
        assert a != Architecture({"x": 2})

    def test_replaced(self):
        a = Architecture({"x": 1, "y": 2})
        b = a.replaced(y=3)
        assert b["y"] == 3 and a["y"] == 2

    def test_constructor_copies_the_callers_mapping(self):
        choices = {"x": 1, "y": "relu"}
        a = Architecture(choices)
        choices["x"] = 2
        del choices["y"]
        assert dict(a) == {"x": 1, "y": "relu"}

    def test_space_built_architectures_equal_constructed_ones(self):
        space = tiny_space()
        for arch in (
            space.architecture_from_indices([1, 2]),
            space.default_architecture(),
            space.sample(np.random.default_rng(0)),
            space.default_architecture().replaced(b="q"),
        ):
            rebuilt = Architecture(dict(arch))
            assert arch == rebuilt and hash(arch) == hash(rebuilt)


def assert_full_assignment(space, arch):
    """``arch`` gives every decision of ``space`` a legal value, and no
    other decision one (``indices_of`` raises on a missing or illegal one)."""
    assert space.architecture_from_indices(space.indices_of(arch)) == arch


def decision(space, name):
    return next(d for d in space.decisions if d.name == name)


def tagged(space, tag):
    return [d for d in space.decisions if tag in d.tags]


def tiny_space():
    return SearchSpace(
        "tiny",
        [Decision("a", (0, 1)), Decision("b", ("p", "q", "r"))],
    )


class TestSearchSpace:
    def test_cardinality(self):
        assert tiny_space().cardinality() == 6
        assert tiny_space().log10_size() == pytest.approx(np.log10(6))

    def test_sample_is_valid(self):
        space = tiny_space()
        arch = space.sample(np.random.default_rng(0))
        assert_full_assignment(space, arch)

    def test_sampling_covers_choices(self):
        space = tiny_space()
        rng = np.random.default_rng(1)
        seen = {space.sample(rng)["b"] for _ in range(100)}
        assert seen == {"p", "q", "r"}


    def test_indices_roundtrip(self):
        space = tiny_space()
        arch = Architecture({"a": 1, "b": "r"})
        idx = space.indices_of(arch)
        assert list(idx) == [1, 2]
        assert space.architecture_from_indices(idx) == arch

    def test_indices_length_check(self):
        with pytest.raises(ValueError):
            tiny_space().architecture_from_indices([0])

    def test_duplicate_decision_names_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace("bad", [Decision("a", (0,)), Decision("a", (1, 2))])

    def test_default_architecture_is_valid(self):
        space = tiny_space()
        assert_full_assignment(space, space.default_architecture())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sample_always_valid(self, seed):
        space = cnn_search_space(CnnSpaceConfig(num_blocks=2))
        arch = space.sample(np.random.default_rng(seed))
        assert_full_assignment(space, arch)


class TestCnnSpace:
    def test_per_block_cardinality_matches_table5(self):
        assert CHOICES_PER_BLOCK == 302400

    def test_full_space_size(self):
        space = cnn_search_space(CnnSpaceConfig(num_blocks=7))
        expected = 302400**7 * 8
        assert space.cardinality() == expected

    def test_decision_count(self):
        space = cnn_search_space(CnnSpaceConfig(num_blocks=3))
        assert len(space) == 3 * 10 + 1  # 10 per block + resolution

    def test_no_resolution_option(self):
        space = cnn_search_space(CnnSpaceConfig(num_blocks=2, include_resolution=False))
        assert "resolution" not in space.default_architecture()

    def test_default_architecture_is_baseline(self):
        space = cnn_search_space(CnnSpaceConfig(num_blocks=1))
        arch = space.default_architecture()
        assert arch["block0/depth_delta"] == 0
        assert arch["block0/width_delta"] == 0
        assert arch["block0/type"] == "mbconv"

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            CnnSpaceConfig(num_blocks=0)

    def test_tagged_lookup(self):
        space = cnn_search_space(CnnSpaceConfig(num_blocks=2))
        assert len(tagged(space, "activation")) == 2
        assert len(tagged(space, "block0")) == 10


class TestDlrmSpace:
    def test_size_matches_paper_arithmetic(self):
        space = dlrm_search_space(DlrmSpaceConfig(num_tables=150, num_dense_stacks=10))
        assert space.cardinality() == 7**300 * (7 * 10 * 10) ** 10

    def test_log10_near_282(self):
        space = dlrm_search_space()
        assert abs(space.log10_size() - 282.0) < 1.0

    def test_small_config(self):
        space = dlrm_search_space(DlrmSpaceConfig(num_tables=2, num_dense_stacks=2))
        assert len(space) == 2 * 2 + 2 * 3

    def test_vocab_optional(self):
        space = dlrm_search_space(
            DlrmSpaceConfig(num_tables=3, num_dense_stacks=1, search_vocab=False)
        )
        assert not tagged(space, "vocab")

    def test_embedding_and_dense_tags(self):
        space = dlrm_search_space(DlrmSpaceConfig(num_tables=2, num_dense_stacks=3))
        assert len(tagged(space, "embedding")) == 4
        assert len(tagged(space, "dense")) == 9

    def test_default_is_baseline(self):
        space = dlrm_search_space(DlrmSpaceConfig(num_tables=1, num_dense_stacks=1))
        arch = space.default_architecture()
        assert arch["emb0/width_delta"] == 0
        assert arch["emb0/vocab_scale"] == 1.0
        assert arch["dense0/low_rank"] == 1.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DlrmSpaceConfig(num_tables=0)


class TestVitSpace:
    def test_per_block_cardinality_matches_table5(self):
        assert CHOICES_PER_TFM_BLOCK == 17920

    def test_pure_transformer_size(self):
        space = vit_search_space(VitSpaceConfig(num_tfm_blocks=2))
        assert space.cardinality() == 17920**2

    def test_hybrid_size_matches_paper_formula(self):
        space = hybrid_vit_search_space()
        assert space.cardinality() == 17920**2 * 302400**2 * 7 * 21

    def test_hidden_sizes_are_multiples_of_64(self):
        space = vit_search_space(VitSpaceConfig(num_tfm_blocks=1))
        sizes = decision(space, "tfm0/hidden_size").choices
        assert all(s % 64 == 0 for s in sizes)
        assert max(sizes) == 1024 and len(sizes) == 16

    def test_squared_relu_available(self):
        space = vit_search_space(VitSpaceConfig(num_tfm_blocks=1))
        assert "squared_relu" in decision(space, "tfm0/activation").choices

    def test_hybrid_name(self):
        assert hybrid_vit_search_space().name == "hybrid_vit"
        assert vit_search_space().name == "vit"


class TestTable5Sizes:
    def test_all_rows_match_paper(self):
        rows = table5_size_rows()
        assert set(rows) == {"cnn", "dlrm", "vit", "hybrid_vit"}
        for row in rows.values():
            assert row.matches_paper_order, row

    def test_per_block_cardinalities(self):
        counts = per_block_cardinalities()
        assert counts["cnn_block"] == 302400
        assert counts["tfm_block"] == 17920
