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
from ..nn import layers as nn_layers
from ..nn.tape import (
    EMPTY_TAPE_STATS,
    CompiledGraph,
    TapeCache,
    compile_graph,
    tape_enabled,
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

    The search engine used to sniff for ``quality_many`` with
    ``getattr`` duck-typing; this Protocol makes the contract explicit
    and ``isinstance``-checkable: a supernet that can score *and* train
    over several same-architecture batches in one stacked pass.
    :class:`StackedScoringMixin` is the stock implementation; any
    structurally-conforming supernet qualifies.

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


def _stacked_group(
    inputs_seq: Sequence[NamedInputs], labels_seq: Sequence[np.ndarray]
) -> Optional[Tuple[NamedInputs, np.ndarray]]:
    """One group's batches as a single ``(inputs, labels)`` batch, or
    ``None`` when they differ in size: a stacked mean would then weight
    examples, not batches."""
    if len(inputs_seq) != len(labels_seq):
        raise ValueError("inputs and labels sequences must align")
    if len(inputs_seq) == 1:
        return inputs_seq[0], labels_seq[0]
    if len({int(np.asarray(labels).shape[0]) for labels in labels_seq}) != 1:
        return None
    stacked_labels = np.concatenate(
        [np.asarray(labels) for labels in labels_seq], axis=0
    )
    return stack_named_inputs(inputs_seq), stacked_labels


class StackedScoringMixin:
    """Batched ``quality_many`` / ``loss_many`` over one architecture.

    Hosts must provide ``forward(arch, inputs) -> Tensor`` of per-example
    logits plus :meth:`quality_from_logits` and :meth:`loss_from_logits`;
    the mixin derives ``loss`` / ``quality`` from them and routes both
    through per-``(kind, arch, shapes)`` compiled graphs (see
    :mod:`repro.nn.tape`) when the host opts in via ``tape_compatible``.
    A key is compiled only once it repeats (first sight runs eagerly),
    and replay is bit-identical to the eager build, so the search
    trajectory does not depend on cache state.

    :meth:`quality_and_loss_many` is the training-step form: one pass
    that yields both the per-batch qualities and the stacked loss, for
    callers that score and then train on the same batches.
    """

    #: Hosts whose ``forward`` is replay-safe (fused layers only, no
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

    def _tape_active(self) -> bool:
        return (
            self.tape_compatible and nn_layers.FUSED_KERNELS and tape_enabled()
        )

    def _compiled(
        self,
        kind: str,
        arch: Architecture,
        inputs: NamedInputs,
        labels: Optional[np.ndarray] = None,
    ) -> Optional[Tuple[CompiledGraph, Dict[str, np.ndarray]]]:
        """Compiled graph for ``(kind, arch, shapes)`` plus bound arrays.

        Returns ``None`` when tape reuse is off or the key has not
        repeated yet — callers then run the eager path.  Labels travel
        through the graph's input buffers (under :data:`_LABELS_KEY`) so
        loss graphs replay against fresh targets, not the targets seen
        at trace time; a loss graph taps its logits node for
        :meth:`quality_and_loss_many`.
        """
        if not self._tape_active():
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
                logits = self.forward(arch, feed)
                if kind == "loss":
                    taps[_LOGITS_TAP] = logits
                    return self.loss_from_logits(logits, buffers[_LABELS_KEY])
                return logits

            return compile_graph(build, arrays, taps)

        graph = self._tape_cache().get_or_build(key, factory)
        return None if graph is None else (graph, arrays)

    def worker_spec(self) -> Tuple:
        """How a process-pool worker rebuilds this supernet.

        Returns a ``("factory", cls, args, kwargs)`` spec when the host
        follows the ``cls(config)`` constructor convention — workers
        reconstruct the module graph from the (tiny) config and then
        overwrite every parameter from the shared-weights segment, so
        the instance itself never needs to pickle.  That matters here:
        a populated tape cache holds per-graph locks, which makes
        whole-object pickling of a warmed-up supernet impossible.
        Hosts without a ``config`` fall back to whole-object pickling,
        and hosts with richer constructors should override this hook.
        """
        config = getattr(self, "config", None)
        if config is not None:
            return ("factory", type(self), (config,), {})
        return ("pickle", self)

    def tape_stats(self) -> Dict[str, int]:
        """Process-lifetime counters of the instance's graph cache."""
        cache = self.__dict__.get("_tapes")
        if cache is None:
            return dict(EMPTY_TAPE_STATS)
        return cache.stats()

    # -- single-batch scoring ------------------------------------------
    def loss(
        self, arch: Architecture, inputs: NamedInputs, labels: np.ndarray
    ) -> Tensor:
        """Mean training loss of ``arch`` on one batch (compiled when
        the host is tape-compatible)."""
        bound = self._compiled("loss", arch, inputs, labels)
        if bound is None:
            return self.loss_from_logits(self.forward(arch, inputs), labels)
        graph, arrays = bound
        return graph.run(arrays)

    def quality(
        self, arch: Architecture, inputs: NamedInputs, labels: np.ndarray
    ) -> float:
        """Per-batch quality of ``arch`` on one batch.

        The metric is extracted under the graph lock: the engine's
        score stage fans duplicate candidates out across workers, and
        two workers replaying one graph must not interleave bind /
        read."""
        bound = self._compiled("forward", arch, inputs)
        if bound is None:
            return self.quality_from_logits(self.forward(arch, inputs), labels)
        graph, arrays = bound
        return graph.call(
            arrays, lambda logits: self.quality_from_logits(logits, labels)
        )

    def _loss_uncompiled(
        self, arch: Architecture, inputs: NamedInputs, labels: np.ndarray
    ) -> Tensor:
        """Per-batch loss that never shares a compiled graph.

        The unequal-size ``loss_many`` fallback keeps several loss
        tensors alive at once; replaying one compiled graph for two
        batches would alias them onto a single output node.  Hosts that
        override ``loss`` keep their override."""
        if type(self).loss is not StackedScoringMixin.loss:
            return self.loss(arch, inputs, labels)
        return self.loss_from_logits(self.forward(arch, inputs), labels)

    def quality_many(
        self,
        arch: Architecture,
        inputs_seq: Sequence[NamedInputs],
        labels_seq: Sequence[np.ndarray],
    ) -> List[float]:
        """Per-batch qualities of ``arch`` from one stacked forward."""
        if len(inputs_seq) != len(labels_seq):
            raise ValueError("inputs and labels sequences must align")
        if len(inputs_seq) == 1:
            return [self.quality(arch, inputs_seq[0], labels_seq[0])]
        stacked = stack_named_inputs(inputs_seq)
        bound = self._compiled("forward", arch, stacked)
        if bound is None:
            return self._sliced_qualities(self.forward(arch, stacked), labels_seq)
        graph, arrays = bound
        return graph.call(
            arrays, lambda logits: self._sliced_qualities(logits, labels_seq)
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

    def loss_many(
        self,
        arch: Architecture,
        inputs_seq: Sequence[NamedInputs],
        labels_seq: Sequence[np.ndarray],
    ) -> Tensor:
        """Mean of the per-batch mean losses, as one stacked pass.

        Batches of unequal size cannot share a stacked mean (it would
        weight examples, not batches), so they fall back to per-batch
        passes combined into the same mean.  The fallback builds each
        per-batch loss eagerly — replaying one compiled graph would
        alias the live loss tensors — and combines them with the
        single-node :func:`repro.nn.stack_mean`, whose left-fold
        accumulation matches the old ``(a + b + ...) * (1/n)`` chain
        bit-for-bit.
        """
        stacked = _stacked_group(inputs_seq, labels_seq)
        if stacked is not None:
            return self.loss(arch, *stacked)
        losses = [
            self._loss_uncompiled(arch, inputs, labels)
            for inputs, labels in zip(inputs_seq, labels_seq)
        ]
        return stack_mean(losses)

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
        the two separate calls.  The returned loss is live (a compiled
        graph's output node once the key has repeated): call
        ``backward`` on it before passing this architecture again.

        Groups :meth:`loss_many` cannot stack (unequal batch sizes) and
        hosts that override ``loss`` or ``quality`` take the two
        separate passes.
        """
        cls = type(self)
        derived = (
            cls.loss is StackedScoringMixin.loss
            and cls.quality is StackedScoringMixin.quality
        )
        stacked = _stacked_group(inputs_seq, labels_seq) if derived else None
        if stacked is None:
            return (
                self.quality_many(arch, inputs_seq, labels_seq),
                self.loss_many(arch, inputs_seq, labels_seq),
            )
        inputs, labels = stacked
        bound = self._compiled("loss", arch, inputs, labels)
        if bound is None:
            logits = self.forward(arch, inputs)
            loss = self.loss_from_logits(logits, labels)
        else:
            graph, arrays = bound
            loss = graph.run(arrays)
            logits = graph.taps[_LOGITS_TAP]
        return self._sliced_qualities(logits, labels_seq), loss
