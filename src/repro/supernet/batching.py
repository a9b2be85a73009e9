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
from ..nn.tape import (
    EMPTY_TAPE_STATS,
    CompiledGraph,
    TapeCache,
    compile_graph,
)
from ..searchspace.base import Architecture

NamedInputs = Dict[str, np.ndarray]

#: Key under which labels ride in a compiled graph's input buffers.
_LABELS_KEY = "__labels__"
#: Tap under which a compiled loss graph exposes its logits node.
_LOGITS_TAP = "logits"


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
    them, which runs per-``(kind, arch, shapes)`` compiled graphs (see
    :mod:`repro.nn.tape`) when the host opts in via ``tape_compatible``.
    A key is compiled only once it repeats (first sight runs eagerly),
    and replay is bit-identical to the eager build, so the search
    trajectory does not depend on cache state.

    :meth:`quality_and_loss_many` is the training-step form: one pass
    that yields both the per-batch qualities and the stacked loss, for
    callers that score and then train on the same batches.
    """

    #: Hosts whose ``forward`` is replay-safe (``repro.nn`` layers, no
    #: Python control flow on input *values*) flip this on to get tape
    #: reuse.  Defaults off so unknown subclasses stay eager.
    tape_compatible: bool = False

    #: LRU capacity of the per-instance graph cache.  Only keys that
    #: repeated are admitted (DESIGN.md §11): the benchmark's 150-step
    #: quickstart searches repeat none of their ~600 sampled
    #: architectures (policy entropy still ~19 nats) and hold 0 graphs;
    #: a converged policy's cores revisit a handful, which 64 slots hold
    #: with room to spare.
    tape_capacity: int = 64

    def quality_from_logits(self, logits: Tensor, labels: np.ndarray) -> float:
        """Per-batch quality metric from already-computed logits."""
        raise NotImplementedError

    def loss_from_logits(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        """Mean training loss from already-computed logits."""
        raise NotImplementedError

    # -- compiled-graph plumbing ---------------------------------------
    def _tape_cache(self) -> TapeCache:
        cache = self.__dict__.get("_tapes")
        if cache is None:
            cache = self.__dict__["_tapes"] = TapeCache(self.tape_capacity)
        return cache

    def _compiled(
        self,
        kind: str,
        arch: Architecture,
        inputs: NamedInputs,
        labels: Optional[np.ndarray] = None,
    ) -> Optional[Tuple[CompiledGraph, Dict[str, np.ndarray]]]:
        """Compiled graph for ``(kind, arch, shapes)`` plus bound arrays.

        Returns ``None`` when the host is not ``tape_compatible`` or the
        key has not repeated yet — the caller then runs the eager path.
        Labels travel through the graph's input buffers (under
        :data:`_LABELS_KEY`) so loss graphs replay against fresh
        targets, not the targets seen at trace time; every graph taps
        its logits node.
        """
        if not self.tape_compatible:
            return None
        arrays: Dict[str, np.ndarray] = {
            name: np.asarray(value) for name, value in inputs.items()
        }
        if labels is not None:
            arrays[_LABELS_KEY] = np.asarray(labels)
        signature = tuple(
            sorted((name, value.shape) for name, value in arrays.items())
        )
        key = (kind, arch, signature)
        input_names = [name for name in arrays if name != _LABELS_KEY]

        def factory() -> CompiledGraph:
            taps: Dict[str, Tensor] = {}

            def build(buffers: Dict[str, np.ndarray]) -> Tensor:
                feed = {name: buffers[name] for name in input_names}
                logits = taps[_LOGITS_TAP] = self.forward(arch, feed)
                if kind == "loss":
                    return self.loss_from_logits(logits, buffers[_LABELS_KEY])
                return logits

            return compile_graph(build, arrays, taps)

        graph = self._tape_cache().get_or_build(key, factory)
        return None if graph is None else (graph, arrays)

    def tape_stats(self) -> Dict[str, int]:
        """Process-lifetime counters of the instance's graph cache."""
        cache = self.__dict__.get("_tapes")
        if cache is None:
            return dict(EMPTY_TAPE_STATS)
        return cache.stats()

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
        """One pass of ``arch`` over a group's batches stacked into one,
        and the only place that picks a compiled graph or an eager build.

        Returns the per-batch qualities when ``score`` and the stacked
        mean loss when ``train`` (``None`` otherwise).  A training pass
        is keyed ``"loss"`` and needs equal batch sizes (see
        :func:`_equal_sized`); a forward-only pass is keyed
        ``"forward"``.  Qualities are read under the graph lock — the
        score stage may hand one architecture to several workers, and
        two of them replaying one graph must not interleave bind and
        read.  A returned loss is live (a compiled graph's output node
        once the key has repeated): call ``backward`` on it before
        passing this architecture and these shapes again.
        """
        if len(inputs_seq) != len(labels_seq):
            raise ValueError("inputs and labels sequences must align")
        single = len(inputs_seq) == 1
        inputs = inputs_seq[0] if single else stack_named_inputs(inputs_seq)
        labels = None
        if train:
            labels = labels_seq[0] if single else np.concatenate(
                [np.asarray(batch_labels) for batch_labels in labels_seq], axis=0
            )

        def read(logits: Tensor, loss: Optional[Tensor]):
            qualities = self._sliced_qualities(logits, labels_seq) if score else None
            return qualities, loss

        bound = self._compiled("loss" if train else "forward", arch, inputs, labels)
        if bound is None:
            logits = self.forward(arch, inputs)
            return read(logits, self.loss_from_logits(logits, labels) if train else None)
        graph, arrays = bound
        return graph.call(
            arrays,
            lambda output: read(graph.taps[_LOGITS_TAP], output if train else None),
        )

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
        into the same mean.  The fallback builds each per-batch loss
        eagerly — replaying one compiled graph would alias the live
        loss tensors onto a single output node — and combines them with
        the single-node :func:`repro.nn.stack_mean`, whose left-fold
        accumulation matches the old ``(a + b + ...) * (1/n)`` chain
        bit-for-bit.
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
        The pass is :meth:`loss_many`'s own — same ``"loss"`` graph key,
        same eager expressions — so both results are bit-identical to
        the two separate calls.  Groups :meth:`loss_many` cannot stack
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
