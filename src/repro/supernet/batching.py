"""Stacked scoring: one supernet pass over several same-arch batches.

In the single-step search every parallel core draws its own fresh batch
and samples its own candidate.  Once the policy converges, most cores
sample the *same* architecture, yet the sequential path still runs one
forward (and one backward) per core.  Since a forward pass is row-wise
in the batch dimension, cores that share an architecture can stack
their batches and run **one** pass over the concatenation:

* per-core qualities are recovered by slicing the stacked logits back
  into per-batch spans — exactly the per-batch metric;
* the stacked mean loss equals the mean of the per-batch mean losses
  whenever the batches are the same size (the single-step pipeline's
  normal case), so one backward scaled by the group size reproduces the
  per-core accumulation.

:class:`StackedScoringMixin` adds this capability to any supernet whose
``forward(arch, inputs)`` consumes a dict of equally-indexed input
arrays; the subnet supplies its per-batch quality metric through
:meth:`StackedScoringMixin.quality_from_logits`.  Supernets without the
mixin simply keep the per-core path — the search falls back
transparently.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from ..nn import Tensor, stack_mean
from ..searchspace.base import Architecture

NamedInputs = Dict[str, np.ndarray]


@runtime_checkable
class StackedScoring(Protocol):
    """The stacked-scoring capability, as a checkable contract.

    A supernet that can score *and* train over several
    same-architecture batches in one stacked pass — and, for a step that
    does both on the same batches, in the same pass
    (``quality_and_loss_many``).  :class:`StackedScoringMixin` is the
    stock implementation; any structurally-conforming supernet qualifies.

    ``runtime_checkable`` Protocols check method *presence*, not
    signatures — which is exactly right for proxy wrappers (e.g. the
    fault injector's mid-shard crash shim) that forward attribute
    lookups to an inner supernet: the isinstance check follows whatever
    the wrapped supernet actually offers.
    """

    def quality_many(
        self,
        arch: Architecture,
        inputs_seq: Sequence[NamedInputs],
        labels_seq: Sequence[np.ndarray],
    ) -> List[float]: ...

    def loss_many(
        self,
        arch: Architecture,
        inputs_seq: Sequence[NamedInputs],
        labels_seq: Sequence[np.ndarray],
    ) -> Tensor: ...

    def quality_and_loss_many(
        self,
        arch: Architecture,
        inputs_seq: Sequence[NamedInputs],
        labels_seq: Sequence[np.ndarray],
    ) -> Tuple[List[float], Tensor]: ...


def stack_named_inputs(inputs_seq: Sequence[NamedInputs]) -> NamedInputs:
    """Concatenate same-keyed input dicts along the example axis."""
    if not inputs_seq:
        raise ValueError("need at least one batch to stack")
    keys = inputs_seq[0].keys()
    for inputs in inputs_seq[1:]:
        if inputs.keys() != keys:
            raise ValueError("all stacked batches must share input names")
    return {
        key: np.concatenate([inputs[key] for inputs in inputs_seq], axis=0)
        for key in keys
    }


def _equal_sized(labels_seq: Sequence[np.ndarray]) -> bool:
    """Whether a group's batches can share a stacked mean loss: with
    unequal sizes it would weight examples, not batches."""
    return len({int(np.asarray(labels).shape[0]) for labels in labels_seq}) <= 1


class StackedScoringMixin:
    """Batched ``quality_many`` / ``loss_many`` over one architecture.

    Hosts must provide ``forward(arch, inputs) -> Tensor`` of per-example
    logits plus :meth:`quality_from_logits` and :meth:`loss_from_logits`;
    every scoring method here is a view of one :meth:`_group_pass` over
    them.

    :meth:`quality_and_loss_many` is the training-step form: one pass
    that yields both the per-batch qualities and the stacked loss, for
    callers that score and then train on the same batches.
    """

    def quality_from_logits(self, logits: Tensor, labels: np.ndarray) -> float:
        """Per-batch quality metric from already-computed logits."""
        raise NotImplementedError

    def loss_from_logits(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        """Mean training loss from already-computed logits."""
        raise NotImplementedError

    def tape_stats(self) -> Dict[str, int]:
        """Always zeros: kept only for ``benchmarks/perf/layers.py``'s
        ``collect_engine_counters``, which reads it after every traced
        search; nothing in ``repro`` calls it."""
        return {"hits": 0, "misses": 0}

    # -- scoring ---------------------------------------------------------
    def _group_pass(
        self,
        arch: Architecture,
        inputs_seq: Sequence[NamedInputs],
        labels_seq: Sequence[np.ndarray],
        *,
        score: bool,
        train: bool,
    ) -> Tuple[Optional[List[float]], Optional[Tensor]]:
        """One forward of ``arch`` over a group's batches stacked into one.

        Returns the per-batch qualities when ``score`` and the stacked
        mean loss when ``train`` (``None`` otherwise).  A training pass
        needs equal batch sizes (see :func:`_equal_sized`).
        """
        if len(inputs_seq) != len(labels_seq):
            raise ValueError("inputs and labels sequences must align")
        single = len(inputs_seq) == 1
        inputs = inputs_seq[0] if single else stack_named_inputs(inputs_seq)
        logits = self.forward(arch, inputs)
        qualities = self._sliced_qualities(logits, labels_seq) if score else None
        loss = None
        if train:
            labels = labels_seq[0] if single else np.concatenate(
                [np.asarray(batch_labels) for batch_labels in labels_seq], axis=0
            )
            loss = self.loss_from_logits(logits, labels)
        return qualities, loss

    def _sliced_qualities(
        self, logits: Tensor, labels_seq: Sequence[np.ndarray]
    ) -> List[float]:
        """Per-batch qualities from the logits of one (stacked) pass."""
        if len(labels_seq) == 1:
            return [self.quality_from_logits(logits, labels_seq[0])]
        qualities: List[float] = []
        start = 0
        for labels in labels_seq:
            end = start + int(np.asarray(labels).shape[0])
            qualities.append(
                self.quality_from_logits(Tensor(logits.data[start:end]), labels)
            )
            start = end
        return qualities

    def loss(
        self, arch: Architecture, inputs: NamedInputs, labels: np.ndarray
    ) -> Tensor:
        """Mean training loss of ``arch`` on one batch."""
        return self._group_pass(arch, [inputs], [labels], score=False, train=True)[1]

    def quality(
        self, arch: Architecture, inputs: NamedInputs, labels: np.ndarray
    ) -> float:
        """Per-batch quality of ``arch`` on one batch."""
        return self._group_pass(
            arch, [inputs], [labels], score=True, train=False
        )[0][0]

    def quality_many(
        self,
        arch: Architecture,
        inputs_seq: Sequence[NamedInputs],
        labels_seq: Sequence[np.ndarray],
    ) -> List[float]:
        """Per-batch qualities of ``arch`` from one stacked forward."""
        return self._group_pass(
            arch, inputs_seq, labels_seq, score=True, train=False
        )[0]

    def loss_many(
        self,
        arch: Architecture,
        inputs_seq: Sequence[NamedInputs],
        labels_seq: Sequence[np.ndarray],
    ) -> Tensor:
        """Mean of the per-batch mean losses, as one stacked pass.

        Batches of unequal size fall back to per-batch passes combined
        into the same mean by the single-node :func:`repro.nn.stack_mean`,
        whose left-fold accumulation matches the old
        ``(a + b + ...) * (1/n)`` chain bit-for-bit.
        """
        if _equal_sized(labels_seq):
            return self._group_pass(
                arch, inputs_seq, labels_seq, score=False, train=True
            )[1]
        if len(inputs_seq) != len(labels_seq):
            raise ValueError("inputs and labels sequences must align")
        return stack_mean(
            [
                self.loss_from_logits(self.forward(arch, inputs), labels)
                for inputs, labels in zip(inputs_seq, labels_seq)
            ]
        )

    def quality_and_loss_many(
        self,
        arch: Architecture,
        inputs_seq: Sequence[NamedInputs],
        labels_seq: Sequence[np.ndarray],
    ) -> Tuple[List[float], Tensor]:
        """:meth:`quality_many` and :meth:`loss_many` from one pass.

        A training step that scores a group and then trains on the same
        batches with unchanged weights needs one forward, not two: the
        qualities are read off the logits node under the stacked loss.
        The pass is :meth:`loss_many`'s own, so both results are
        bit-identical to the two separate calls.  Groups :meth:`loss_many` cannot stack
        (unequal batch sizes) take the two separate passes.
        """
        if _equal_sized(labels_seq):
            return self._group_pass(
                arch, inputs_seq, labels_seq, score=True, train=True
            )
        return (
            self.quality_many(arch, inputs_seq, labels_seq),
            self.loss_many(arch, inputs_seq, labels_seq),
        )
