"""Shared elastic substrate for the masking-based super-networks.

Every super-network in this package (DLRM, vision proxy, transformer
proxy) is built from the same two elastic primitives, extracted here so
the once-for-all workflow (train one elastic supernet, specialize per
hardware target — see :mod:`repro.core.elastic`) has a single substrate
to train:

* **dynamic channels** — :class:`ElasticMlp` holds one weight matrix at
  the maximum width per layer and *slices* the active sub-matrix per
  candidate.  Slicing rides the fused chain kernel of
  :mod:`repro.nn.fused` (prefix masks become sliced BLAS calls), so a
  half-width candidate really pays ~quarter the FLOPs, not a masked
  full-width pass;
* **dynamic depth** — :class:`ElasticLayerStack` owns a maximal list of
  per-depth layers and activates a validated prefix per candidate.

On top sits the **progressive-shrinking** training schedule
(:class:`ShrinkSchedule`): elastic training starts from the baseline
sub-network only and widens the sampled sub-space on a step schedule —
first the width-like decisions (channels, vocabularies, ranks), then
depth — by progressively *unfreezing* tagged decision groups of the
search space.  Restriction is expressed with
:meth:`repro.searchspace.base.SearchSpace.frozen`, so every phase's
space keeps the full decision set (architectures stay compatible with
the supernet, the controller, and the encoders) while pinned decisions
have a single admissible value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..nn import LowRankDense, MaskedDense, Module, Tensor, dense_chain
from ..searchspace.base import SearchSpace

__all__ = [
    "ElasticLayerStack",
    "ElasticMlp",
    "ShrinkPhase",
    "ShrinkSchedule",
    "elastic_rank",
    "elastic_width",
]

#: Decision tags the default progressive-shrinking schedule manages, in
#: unfreeze order: width-like decisions first (channel widths, vocabulary
#: sizes, low-rank fractions, transformer hidden sizes), depth last —
#: the OFA ordering, adapted to this repo's tag taxonomy.
WIDTH_LIKE_TAGS = ("width", "vocab", "low_rank", "hidden_size")
DEPTH_LIKE_TAGS = ("depth",)


def elastic_width(base: int, delta: int, increment: int, minimum: Optional[int] = None) -> int:
    """Active width of a ``base + delta * increment`` elastic dimension.

    The shared width arithmetic of every masking supernet: deltas move
    in quanta of ``increment`` channels and the result never drops below
    ``minimum`` (one quantum by default), so a maximally-negative delta
    still leaves a usable layer.
    """
    if minimum is None:
        minimum = increment
    return max(minimum, base + delta * increment)


def elastic_rank(fraction: float, width: int, increment: int = 1) -> int:
    """Active rank of a factorized layer at ``fraction`` of ``width``.

    Quantized to ``increment`` (the fused kernels' slicing quantum) and
    clamped to ``[increment, width]`` so a tiny fraction still yields a
    trainable factor and the rank never exceeds the full-rank width.
    """
    rank = max(increment, int(round(fraction * width / increment)) * increment)
    return min(rank, width)


class ElasticLayerStack(Module):
    """A depth-elastic sequence of per-depth submodules.

    Owns the *maximal* list of layers; candidates activate a validated
    prefix via :meth:`active`.  Used directly by the transformer blocks
    and (as parallel per-role stacks) by the vision proxy blocks; the
    DLRM MLP stacks use it through :class:`ElasticMlp`.
    """

    def __init__(self, layers: Sequence[Module]):
        if not layers:
            raise ValueError("an elastic stack needs at least one layer")
        self.layers: List[Module] = list(layers)

    @property
    def max_depth(self) -> int:
        return len(self.layers)

    def active(self, depth: int) -> List[Module]:
        """The first ``depth`` layers, validating the elastic range."""
        if not (1 <= depth <= len(self.layers)):
            raise ValueError(
                f"active depth {depth} outside [1, {len(self.layers)}]"
            )
        return self.layers[:depth]


class ElasticMlp(Module):
    """One width/depth/rank-elastic MLP stack with shared weights.

    Each depth slot holds a full-rank path and a factorized low-rank
    path over the *same* maximal dimensions; candidates choose width,
    depth, and rank fraction per forward.  This is the substrate behind
    both DLRM MLP stacks (bottom and top), generalized over the width
    quantum so other spaces can reuse it.  A pass chains the active
    layers' steps into one :func:`repro.nn.dense_chain` node.
    """

    def __init__(
        self,
        input_width: int,
        max_width: int,
        max_depth: int,
        rng: np.random.Generator,
        width_increment: int = 8,
    ):
        self.input_width = input_width
        self.max_width = max_width
        self.width_increment = width_increment
        full_layers: List[MaskedDense] = []
        lowrank_layers: List[LowRankDense] = []
        for i in range(max_depth):
            nin = input_width if i == 0 else max_width
            full_layers.append(MaskedDense(nin, max_width, rng))
            lowrank_layers.append(LowRankDense(nin, max_width, max_width, rng))
        self.full = ElasticLayerStack(full_layers)
        self.lowrank = ElasticLayerStack(lowrank_layers)

    @property
    def max_depth(self) -> int:
        return self.full.max_depth

    def forward(
        self,
        x: Tensor,
        active_width: int,
        active_depth: int,
        low_rank_fraction: float,
    ) -> Tensor:
        if not (0 < active_width <= self.max_width):
            raise ValueError(
                f"active_width {active_width} outside (0, {self.max_width}]"
            )
        steps = []
        layers = zip(self.full.active(active_depth), self.lowrank.active(active_depth))
        for i, (full, lowrank) in enumerate(layers):
            active_in = self.input_width if i == 0 else active_width
            if low_rank_fraction >= 1.0:
                steps += full.steps(active_in, active_width)
            else:
                rank = elastic_rank(
                    low_rank_fraction, active_width, self.width_increment
                )
                steps += lowrank.steps(active_in, active_width, rank)
        return dense_chain(x, steps)


# ----------------------------------------------------------------------
# Progressive shrinking
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShrinkPhase:
    """One phase of a progressive-shrinking schedule.

    From ``start_step`` on, decisions tagged with any of ``free_tags``
    join the sampled sub-space (freedoms are cumulative across phases).
    """

    name: str
    start_step: int
    free_tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("phase name must be non-empty")
        if self.start_step < 0:
            raise ValueError("phase start_step must be >= 0")


class ShrinkSchedule:
    """Step schedule widening the sampled sub-space of an elastic train.

    The schedule manages the union of every phase's ``free_tags``: a
    decision carrying a managed tag is pinned to its baseline value
    (choice index 0) until the phase that frees its tag begins; all
    other decisions are never restricted.  Phase membership is a pure
    function of the step index, so crash/resumed runs land in the same
    phase by construction — only the sampler rng (already checkpointed
    by the engine) carries state.
    """

    def __init__(self, phases: Sequence[ShrinkPhase]):
        phases = tuple(phases)
        if not phases:
            raise ValueError("schedule needs at least one phase")
        if phases[0].start_step != 0:
            raise ValueError("first phase must start at step 0")
        for before, after in zip(phases, phases[1:]):
            if after.start_step <= before.start_step:
                raise ValueError(
                    "phase start steps must be strictly increasing "
                    f"({after.name!r} at {after.start_step} follows "
                    f"{before.name!r} at {before.start_step})"
                )
        names = [p.name for p in phases]
        if len(set(names)) != len(names):
            raise ValueError("phase names must be unique")
        self.phases: Tuple[ShrinkPhase, ...] = phases
        self.managed_tags: Tuple[str, ...] = tuple(
            sorted({tag for p in phases for tag in p.free_tags})
        )
        self._space_cache: Dict[Tuple[int, int], SearchSpace] = {}

    # -- construction helpers ------------------------------------------
    @classmethod
    def default(cls, total_steps: int) -> "ShrinkSchedule":
        """The stock three-phase schedule for a ``total_steps`` training.

        Phase boundaries at one and two thirds of the run: baseline-only
        warm start, then width-like decisions, then depth.  For very
        short runs later phases may start beyond the horizon and simply
        never activate — the tiny-config smoke tests accept that.
        """
        if total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        first = max(1, total_steps // 3)
        second = max(first + 1, (2 * total_steps) // 3)
        return cls(
            (
                ShrinkPhase("full", 0, ()),
                ShrinkPhase("widths", first, WIDTH_LIKE_TAGS),
                ShrinkPhase("depths", second, DEPTH_LIKE_TAGS),
            )
        )

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ShrinkSchedule":
        """Rebuild a schedule from :meth:`describe` output."""
        phases = [
            ShrinkPhase(
                name=str(entry["name"]),
                start_step=int(entry["start_step"]),
                free_tags=tuple(str(t) for t in entry["free_tags"]),
            )
            for entry in payload["phases"]
        ]
        return cls(phases)

    # -- phase lookup ---------------------------------------------------
    def phase_index(self, step: int) -> int:
        """Index of the phase active at ``step``."""
        if step < 0:
            raise ValueError("step must be >= 0")
        index = 0
        for i, phase in enumerate(self.phases):
            if step >= phase.start_step:
                index = i
        return index

    def free_tags_at(self, step: int) -> Tuple[str, ...]:
        """Cumulative freed tags at ``step`` (sorted, deduplicated)."""
        freed = {
            tag
            for phase in self.phases[: self.phase_index(step) + 1]
            for tag in phase.free_tags
        }
        return tuple(sorted(freed))

    def space_at(self, step: int, space: SearchSpace) -> SearchSpace:
        """The restricted space the phase at ``step`` samples from.

        Managed-but-not-yet-freed decisions are pinned to their baseline
        (choice index 0) via :meth:`SearchSpace.frozen`; the returned
        space is cached per (space, phase) so repeated steps share one
        instance.
        """
        index = self.phase_index(step)
        key = (id(space), index)
        cached = self._space_cache.get(key)
        if cached is not None:
            return cached
        freed = set(self.free_tags_at(step))
        pinned = {
            decision.name: decision.choices[0]
            for decision in space.decisions
            if any(tag in self.managed_tags for tag in decision.tags)
            and not any(tag in freed for tag in decision.tags)
        }
        restricted = (
            space
            if not pinned
            else space.frozen(pinned, name=f"{space.name}@{self.phases[index].name}")
        )
        self._space_cache[key] = restricted
        return restricted

    # -- identity -------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """JSON-safe description (rides in checkpoints and artifacts)."""
        return {
            "phases": [
                {
                    "name": p.name,
                    "start_step": p.start_step,
                    "free_tags": list(p.free_tags),
                }
                for p in self.phases
            ],
            "managed_tags": list(self.managed_tags),
        }

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ShrinkSchedule) and self.phases == other.phases

    def __repr__(self) -> str:
        body = ", ".join(
            f"{p.name}@{p.start_step}" for p in self.phases
        )
        return f"ShrinkSchedule({body})"
