"""Architecture feature encoding for the performance model.

The performance model's inputs are "the model architecture
hyper-parameters as shown in Table 5" (Section 6.2.1).  We encode an
architecture as the concatenated one-hot vectors of its categorical
decisions — the exact information the RL controller injects per search
step — plus, for numeric decisions, a normalized scalar channel that
helps the MLP interpolate between ordered choices.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..searchspace.base import Architecture, SearchSpace


class ArchitectureEncoder:
    """Encodes architectures of one search space as feature vectors.

    The per-decision layout (one-hot offset, numeric channel offset,
    choice-index table, normalization) is precomputed once so encoding
    a whole shard is a few vectorized scatters per decision rather than
    per-architecture array construction — ``encode_batch`` sits on the
    batched-pricing hot path.
    """

    def __init__(self, space: SearchSpace):
        self.space = space
        self._numeric: List[bool] = [
            all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in d.choices)
            for d in space.decisions
        ]
        self._spans: List[float] = []
        self._minimums: List[float] = []
        for decision, numeric in zip(space.decisions, self._numeric):
            if numeric:
                values = [float(c) for c in decision.choices]
                span = max(values) - min(values)
                self._spans.append(span if span > 0 else 1.0)
                self._minimums.append(min(values))
            else:
                self._spans.append(1.0)
                self._minimums.append(0.0)
        # Feature-vector layout: each decision's one-hot block, followed
        # (for numeric decisions) by one normalized scalar channel.
        self._onehot_offsets: List[int] = []
        self._scalar_offsets: List[int] = []
        self._index_of: List[dict] = []
        offset = 0
        for decision, numeric in zip(space.decisions, self._numeric):
            self._onehot_offsets.append(offset)
            offset += decision.num_choices
            self._scalar_offsets.append(offset if numeric else -1)
            if numeric:
                offset += 1
            self._index_of.append({c: i for i, c in enumerate(decision.choices)})
        self._num_features = offset

    @property
    def num_features(self) -> int:
        return self._num_features

    def encode_batch(self, archs) -> np.ndarray:
        """Feature matrix ``(len(archs), num_features)``."""
        archs = list(archs)
        features = np.zeros((len(archs), self._num_features))
        if not archs:
            return features
        rows = np.arange(len(archs))
        for decision, numeric, span, minimum, onehot_offset, scalar_offset, table in zip(
            self.space.decisions,
            self._numeric,
            self._spans,
            self._minimums,
            self._onehot_offsets,
            self._scalar_offsets,
            self._index_of,
        ):
            name = decision.name
            values = [arch[name] for arch in archs]
            indices = np.fromiter(
                (
                    table[v] if v in table else decision.index_of(v)
                    for v in values
                ),
                dtype=np.intp,
                count=len(values),
            )
            features[rows, onehot_offset + indices] = 1.0
            if numeric:
                features[:, scalar_offset] = (
                    np.asarray(values, dtype=np.float64) - minimum
                ) / span
        return features
