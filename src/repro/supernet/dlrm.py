"""DLRM weight-sharing super-network (Figure 3 of the paper).

This is the paper's first-of-a-kind super-network for RL-based one-shot
NAS on recommendation models, with *hybrid* weight sharing:

* fine-grained over embedding widths — one table at the maximum width
  per vocabulary candidate; narrower candidates mask all but the first
  ``D`` columns (point (1) in Figure 3);
* coarse-grained over vocabulary sizes — each vocabulary-size option
  has its own table, avoiding harmful interference between candidates
  that address rows differently (point (2));
* fine-grained over MLP widths — one weight matrix at the maximum
  input/output size per layer; smaller candidates keep the upper-left
  sub-matrix (point (3));
* fine-grained over low-rank factorization — shared factor matrices
  whose active rank is masked per candidate (point (4)).

The super-network consumes architectures from
:func:`repro.searchspace.dlrm_search_space` (with matching table/stack
counts) and CTR batches from :mod:`repro.data`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..nn import (
    Dense,
    MaskedEmbedding,
    Module,
    Tensor,
    bce_with_logits,
    binary_accuracy,
    embedding_interaction,
)
from ..searchspace.base import Architecture
from ..searchspace.dlrm import (
    EMBEDDING_WIDTH_DELTAS,
    VOCAB_SCALES,
    DENSE_DEPTH_DELTAS,
    DENSE_WIDTH_DELTAS,
)
from .batching import StackedScoringMixin
from .elastic import ElasticMlp, elastic_width

#: Width quantum of embedding and MLP width deltas ("minimal increment of 8").
WIDTH_INCREMENT = 8


@dataclass(frozen=True)
class DlrmSupernetConfig:
    """Baseline DLRM the super-network is built around.

    ``num_dense_stacks`` must be 2 — stack 0 is the bottom MLP (dense
    features), stack 1 the top MLP (after feature interaction).  The
    search space may carry more stacks for cardinality studies, but the
    trainable super-network is the classic two-stack DLRM.
    """

    num_tables: int = 4
    base_vocab: int = 64
    base_embedding_width: int = 32
    num_dense_features: int = 8
    base_bottom_width: int = 48
    base_bottom_depth: int = 2
    base_top_width: int = 48
    base_top_depth: int = 2
    #: "coarse" (the paper's design): one table per vocabulary-size
    #: candidate, avoiding harmful interactions.  "fine": a single
    #: shared table; smaller vocabularies wrap ids into its first rows,
    #: so candidates with different vocabularies fight over rows — the
    #: interference the hybrid design exists to avoid (ablated in
    #: benchmarks/bench_ablation_sharing.py).
    vocab_sharing: str = "coarse"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocab_sharing not in ("coarse", "fine"):
            raise ValueError("vocab_sharing must be 'coarse' or 'fine'")
        if self.base_embedding_width < WIDTH_INCREMENT * 4:
            raise ValueError(
                "base embedding width must leave room for a -3 width delta"
            )
        if min(self.base_bottom_width, self.base_top_width) < WIDTH_INCREMENT * 6:
            raise ValueError("base MLP widths must leave room for a -5 width delta")

    # Derived maxima ---------------------------------------------------
    @property
    def max_embedding_width(self) -> int:
        return self.base_embedding_width + max(EMBEDDING_WIDTH_DELTAS) * WIDTH_INCREMENT

    @property
    def max_bottom_width(self) -> int:
        return self.base_bottom_width + max(DENSE_WIDTH_DELTAS) * WIDTH_INCREMENT

    @property
    def max_top_width(self) -> int:
        return self.base_top_width + max(DENSE_WIDTH_DELTAS) * WIDTH_INCREMENT

    @property
    def max_bottom_depth(self) -> int:
        return self.base_bottom_depth + max(DENSE_DEPTH_DELTAS)

    @property
    def max_top_depth(self) -> int:
        return self.base_top_depth + max(DENSE_DEPTH_DELTAS)

    def embedding_width(self, delta: int) -> int:
        return elastic_width(self.base_embedding_width, delta, WIDTH_INCREMENT)

    def vocab_size(self, scale: float) -> int:
        return max(1, int(round(self.base_vocab * scale)))


class DlrmSuperNetwork(StackedScoringMixin, Module):
    """The hybrid fine/coarse weight-sharing DLRM super-network."""

    def __init__(self, config: Optional[DlrmSupernetConfig] = None):
        self.config = config = config or DlrmSupernetConfig()
        rng = np.random.default_rng(config.seed)
        # Coarse-grained over vocab: one table per (table, vocab-scale);
        # fine-grained over width inside each table.  In the "fine"
        # ablation mode every vocab scale shares one table at the
        # largest vocabulary.
        self.embeddings: List[Dict[float, MaskedEmbedding]] = []
        for _ in range(config.num_tables):
            if config.vocab_sharing == "coarse":
                per_scale = {
                    scale: MaskedEmbedding(
                        config.vocab_size(scale), config.max_embedding_width, rng
                    )
                    for scale in VOCAB_SCALES
                }
            else:
                shared = MaskedEmbedding(
                    config.vocab_size(max(VOCAB_SCALES)),
                    config.max_embedding_width,
                    rng,
                )
                per_scale = {scale: shared for scale in VOCAB_SCALES}
            self.embeddings.append(per_scale)
        self.bottom = ElasticMlp(
            input_width=config.num_dense_features,
            max_width=config.max_bottom_width,
            max_depth=config.max_bottom_depth,
            rng=rng,
            width_increment=WIDTH_INCREMENT,
        )
        interaction_width = (
            config.max_bottom_width
            + config.num_tables * config.max_embedding_width
        )
        self.top = ElasticMlp(
            input_width=interaction_width,
            max_width=config.max_top_width,
            max_depth=config.max_top_depth,
            rng=rng,
            width_increment=WIDTH_INCREMENT,
        )
        self.head = Dense(config.max_top_width, 1, rng, activation_name="linear")

    # ------------------------------------------------------------------
    def forward(self, arch: Architecture, inputs: Dict[str, np.ndarray]) -> Tensor:
        """Logits of sub-network ``arch`` on a CTR batch."""
        cfg = self.config
        # Bottom MLP over dense features.
        bottom_width = self._stack_width(arch, "dense0", cfg.base_bottom_width)
        bottom_depth = self._stack_depth(arch, "dense0", cfg.base_bottom_depth, self.bottom)
        bottom_out = self.bottom(
            Tensor(np.asarray(inputs["dense"], dtype=self.head.weight.data.dtype)),
            active_width=bottom_width,
            active_depth=bottom_depth,
            low_rank_fraction=float(arch["dense0/low_rank"]),
        )
        # Embedding lookups (coarse vocab table + fine width mask), in
        # the interaction node.  A table has as many rows as its
        # vocabulary; in the fine-sharing ablation a smaller vocabulary
        # wraps its ids into the first rows of the shared table.
        tables, widths, moduli = [], [], []
        for t in range(cfg.num_tables):
            scale = float(arch[f"emb{t}/vocab_scale"])
            tables.append(self.embeddings[t][scale].table)
            widths.append(cfg.embedding_width(int(arch[f"emb{t}/width_delta"])))
            moduli.append(cfg.vocab_size(scale))
        interaction = embedding_interaction(
            bottom_out, tables, inputs["sparse"], widths, moduli
        )
        # Top MLP over the interaction vector.
        top_width = self._stack_width(arch, "dense1", cfg.base_top_width)
        top_depth = self._stack_depth(arch, "dense1", cfg.base_top_depth, self.top)
        top_out = self.top(
            interaction,
            active_width=top_width,
            active_depth=top_depth,
            low_rank_fraction=float(arch["dense1/low_rank"]),
        )
        return self.head(top_out)

    def loss_from_logits(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        return bce_with_logits(logits, labels)

    def quality_from_logits(self, logits: Tensor, labels: np.ndarray) -> float:
        """Label accuracy from logits (the quality signal Q)."""
        return binary_accuracy(logits, labels)

    # ------------------------------------------------------------------
    def _stack_width(self, arch: Architecture, prefix: str, base: int) -> int:
        return elastic_width(
            base, int(arch[f"{prefix}/width_delta"]), WIDTH_INCREMENT
        )

    def _stack_depth(
        self, arch: Architecture, prefix: str, base: int, stack: ElasticMlp
    ) -> int:
        depth = base + int(arch[f"{prefix}/depth_delta"])
        return min(stack.max_depth, max(1, depth))
