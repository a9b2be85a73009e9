"""Synthetic production-traffic generators.

Production data cannot leave Google, so the reproduction plants its own
signal.  Both task families are *architecture-sensitive* by
construction: a teacher network with known structure generates the
labels, so candidates with enough capacity in the right places
(embedding width for memorization, MLP width/depth for generalization)
measurably outperform candidates without it — the property the
Pareto-optimization needs in order to have a real quality axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

from ..nn.initializers import DTYPE
from .batch import Batch


class ResumableSource:
    """Checkpoint support for seeded batch streams.

    Teachers derive every batch from ``self._rng`` and number them with
    ``self._next_id``; capturing the bit-generator state and the counter
    is therefore enough to resume the stream bit-identically after a
    crash (the teacher weights are reconstructed from the config seed).
    """

    def state_dict(self) -> dict:
        return {"rng": self._rng.bit_generator.state, "next_id": self._next_id}

    def load_state_dict(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]
        self._next_id = int(state["next_id"])


@dataclass(frozen=True)
class CtrTaskConfig:
    """Synthetic click-through-rate (DLRM) task.

    Labels come from a teacher combining (a) per-id memorized offsets —
    learnable only by embeddings, with per-table importance decaying so
    wider/larger tables help unevenly — and (b) a smooth nonlinear
    function of the dense features — learnable only by the MLP side.
    """

    num_tables: int = 4
    vocab_size: int = 64
    num_dense: int = 8
    batch_size: int = 64
    #: Relative strength of the memorization (embedding) signal.
    memorization_weight: float = 1.0
    #: Relative strength of the generalization (dense MLP) signal.
    generalization_weight: float = 1.0
    seed: int = 0


class CtrTeacher(ResumableSource):
    """Generates CTR batches with planted memorization/generalization signal."""

    def __init__(self, config: CtrTaskConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        # Memorized per-id logits; importance decays geometrically per table,
        # so tables are unequally valuable (as in production DLRMs).
        self._table_importance = 0.7 ** np.arange(config.num_tables)
        self._id_logits = rng.normal(
            0.0, 1.0, size=(config.num_tables, config.vocab_size)
        )
        # Smooth dense teacher: random two-layer network.
        self._w1 = rng.normal(0.0, 1.0, size=(config.num_dense, 16))
        self._w2 = rng.normal(0.0, 1.0, size=(16, 1))
        self._rng = np.random.default_rng(config.seed + 1)
        self._next_id = 0

    def next_batch(self) -> Batch:
        cfg = self.config
        rng = self._rng
        dense = rng.normal(0.0, 1.0, size=(cfg.batch_size, cfg.num_dense))
        sparse = rng.integers(0, cfg.vocab_size, size=(cfg.batch_size, cfg.num_tables))
        memor = np.zeros(cfg.batch_size)
        for t in range(cfg.num_tables):
            memor += self._table_importance[t] * self._id_logits[t, sparse[:, t]]
        gener = np.tanh(dense @ self._w1) @ self._w2
        logits = (
            cfg.memorization_weight * memor
            + cfg.generalization_weight * gener[:, 0]
        )
        probs = 1.0 / (1.0 + np.exp(-logits))
        labels = (rng.uniform(size=cfg.batch_size) < probs).astype(DTYPE)
        batch = Batch(
            batch_id=self._next_id,
            inputs={"dense": dense.astype(DTYPE), "sparse": sparse},
            labels=labels.reshape(-1, 1),
        )
        self._next_id += 1
        return batch


@dataclass(frozen=True)
class SequenceTaskConfig:
    """Synthetic sequence-classification task for transformer proxies.

    Each example is a sequence of feature vectors; the teacher mixes
    information across positions (a fixed bilinear interaction between
    the sequence mean and the first token) before classifying, so
    models that can attend across positions outperform pointwise ones.
    """

    seq_len: int = 8
    num_features: int = 8
    num_classes: int = 4
    batch_size: int = 32
    label_noise: float = 0.05
    seed: int = 0


class SequenceTeacher(ResumableSource):
    """Generates sequence batches from a fixed cross-position teacher."""

    def __init__(self, config: SequenceTaskConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        hidden = 16
        self._w_mean = rng.normal(0.0, 1.0, size=(config.num_features, hidden))
        self._w_first = rng.normal(0.0, 1.0, size=(config.num_features, hidden))
        self._w_out = rng.normal(0.0, 1.2, size=(hidden, config.num_classes))
        self._rng = np.random.default_rng(config.seed + 1)
        self._next_id = 0

    def next_batch(self) -> Batch:
        cfg = self.config
        rng = self._rng
        x = rng.normal(0.0, 1.0, size=(cfg.batch_size, cfg.seq_len, cfg.num_features))
        mixed = np.maximum(
            x.mean(axis=1) @ self._w_mean + x[:, 0, :] @ self._w_first, 0.0
        )
        labels = (mixed @ self._w_out).argmax(axis=1)
        flip = rng.uniform(size=cfg.batch_size) < cfg.label_noise
        labels[flip] = rng.integers(0, cfg.num_classes, size=int(flip.sum()))
        batch = Batch(batch_id=self._next_id, inputs={"x": x.astype(DTYPE)}, labels=labels)
        self._next_id += 1
        return batch


@dataclass(frozen=True)
class LmTaskConfig:
    """Synthetic next-token-style task for transformer NLP proxies.

    Each position's label depends on the current *and previous*
    position's features (a bigram teacher), so per-position prediction
    requires mixing information along the sequence — the capability the
    paper's transformer search space targets for NLP models.
    """

    seq_len: int = 8
    num_features: int = 8
    num_classes: int = 4
    batch_size: int = 32
    label_noise: float = 0.05
    seed: int = 0


class LmTeacher(ResumableSource):
    """Generates per-position-labelled sequences from a bigram teacher."""

    def __init__(self, config: LmTaskConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        hidden = 16
        self._w_current = rng.normal(0.0, 1.0, size=(config.num_features, hidden))
        self._w_previous = rng.normal(0.0, 1.0, size=(config.num_features, hidden))
        self._w_out = rng.normal(0.0, 1.2, size=(hidden, config.num_classes))
        self._rng = np.random.default_rng(config.seed + 1)
        self._next_id = 0

    def next_batch(self) -> Batch:
        cfg = self.config
        rng = self._rng
        x = rng.normal(0.0, 1.0, size=(cfg.batch_size, cfg.seq_len, cfg.num_features))
        previous = np.concatenate([np.zeros_like(x[:, :1]), x[:, :-1]], axis=1)
        mixed = np.maximum(
            x @ self._w_current + previous @ self._w_previous, 0.0
        )
        labels = (mixed @ self._w_out).argmax(axis=-1)  # (batch, seq)
        flip = rng.uniform(size=labels.shape) < cfg.label_noise
        labels[flip] = rng.integers(0, cfg.num_classes, size=int(flip.sum()))
        batch = Batch(batch_id=self._next_id, inputs={"x": x.astype(DTYPE)}, labels=labels)
        self._next_id += 1
        return batch


class NullSource:
    """Produces empty placeholder batches.

    Used by surrogate-driven searches, where quality comes from an
    analytical model rather than data, but the single-step pipeline's
    consumption protocol is still exercised.
    """

    def __init__(self):
        self._next_id = 0

    def state_dict(self) -> dict:
        return {"next_id": self._next_id}

    def load_state_dict(self, state: dict) -> None:
        self._next_id = int(state["next_id"])

    def next_batch(self) -> Batch:
        batch = Batch(batch_id=self._next_id, inputs={}, labels=np.zeros(1))
        self._next_id += 1
        return batch


@dataclass(frozen=True)
class VisionTaskConfig:
    """Synthetic vision-like classification task.

    Inputs are feature vectors standing in for image encodings; a fixed
    nonlinear teacher assigns one of ``num_classes`` labels.  Capacity
    (width/depth) of a student measurably improves its accuracy until
    it saturates the teacher, giving the searches a quality gradient.
    """

    num_features: int = 16
    num_classes: int = 4
    batch_size: int = 64
    teacher_hidden: int = 32
    label_noise: float = 0.05
    seed: int = 0


class VisionTeacher(ResumableSource):
    """Generates classification batches from a fixed nonlinear teacher."""

    def __init__(self, config: VisionTaskConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self._w1 = rng.normal(0.0, 1.2, size=(config.num_features, config.teacher_hidden))
        self._w2 = rng.normal(0.0, 1.2, size=(config.teacher_hidden, config.num_classes))
        self._rng = np.random.default_rng(config.seed + 1)
        self._next_id = 0

    def next_batch(self) -> Batch:
        cfg = self.config
        rng = self._rng
        x = rng.normal(0.0, 1.0, size=(cfg.batch_size, cfg.num_features))
        logits = np.maximum(x @ self._w1, 0.0) @ self._w2
        labels = logits.argmax(axis=1)
        flip = rng.uniform(size=cfg.batch_size) < cfg.label_noise
        labels[flip] = rng.integers(0, cfg.num_classes, size=int(flip.sum()))
        batch = Batch(
            batch_id=self._next_id,
            inputs={"x": x.astype(DTYPE)},
            labels=labels,
        )
        self._next_id += 1
        return batch
