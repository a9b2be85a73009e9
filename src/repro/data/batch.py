"""Batch container shared by all data pipelines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np


@dataclass(frozen=True)
class Batch:
    """One mini-batch of examples.

    Attributes:
        batch_id: monotonically increasing id assigned by the stream;
            used by the single-step pipeline to enforce its
            policy-before-weights consumption protocol.
        inputs: named input arrays (e.g. ``dense``/``sparse`` for a
            DLRM, ``x`` for a vision task).
        labels: target array.
    """

    batch_id: int
    inputs: Dict[str, np.ndarray] = field(default_factory=dict)
    labels: np.ndarray = field(default_factory=lambda: np.zeros(0))
