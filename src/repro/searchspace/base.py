"""Search-space primitives: categorical decisions and architectures.

The paper's RL search algorithm views a search space as "a set of
categorical decisions, where each decision controls a different aspect
of the network architecture" (Section 4.1).  :class:`Decision` is one
such multinomial variable, :class:`SearchSpace` an ordered collection,
and :class:`Architecture` one concrete assignment of every decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Decision:
    """One categorical search-space decision.

    Attributes:
        name: unique identifier within its search space.
        choices: the admissible values (any hashable payload).
        tags: free-form labels ("embedding", "dense", ...) used by
            feature encoders and analysis.
    """

    name: str
    choices: Tuple[Any, ...]
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.choices) < 1:
            raise ValueError(f"decision {self.name!r} needs at least one choice")
        if len(set(map(repr, self.choices))) != len(self.choices):
            raise ValueError(f"decision {self.name!r} has duplicate choices")

    @property
    def num_choices(self) -> int:
        return len(self.choices)

    def index_of(self, value: Any) -> int:
        """Index of ``value`` among the choices."""
        for i, choice in enumerate(self.choices):
            if choice == value:
                return i
        raise ValueError(f"{value!r} is not a choice of decision {self.name!r}")


class Architecture(Mapping[str, Any]):
    """An immutable assignment of every decision in a search space."""

    def __init__(self, choices: Mapping[str, Any]):
        self._choices = dict(choices)  # a caller's mapping may change later

    @classmethod
    def _adopt(cls, choices: Dict[str, Any]) -> "Architecture":
        """An architecture that keeps ``choices`` itself, uncopied: for a
        dict built for it, which no one else holds."""
        arch = cls.__new__(cls)
        arch._choices = choices
        return arch

    def __getitem__(self, name: str) -> Any:
        return self._choices[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._choices)

    def __len__(self) -> int:
        return len(self._choices)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Architecture) and self._choices == other._choices

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, repr(v)) for k, v in self._choices.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in sorted(self._choices.items()))
        return f"Architecture({body})"

    def replaced(self, **updates: Any) -> "Architecture":
        """A copy with some decisions re-assigned."""
        merged = dict(self._choices)
        merged.update(updates)
        return Architecture._adopt(merged)

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._choices)


class SearchSpace:
    """An ordered collection of decisions with sampling and accounting."""

    def __init__(self, name: str, decisions: Sequence[Decision]):
        names = [d.name for d in decisions]
        if len(set(names)) != len(names):
            raise ValueError("duplicate decision names in search space")
        self.name = name
        self.decisions: List[Decision] = list(decisions)
        self._by_name: Dict[str, Decision] = {d.name: d for d in decisions}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.decisions)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def decision(self, name: str) -> Decision:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no decision named {name!r} in space {self.name!r}") from None

    def decisions_tagged(self, tag: str) -> List[Decision]:
        """All decisions carrying ``tag``."""
        return [d for d in self.decisions if tag in d.tags]

    # ------------------------------------------------------------------
    # Size accounting (Table 5)
    # ------------------------------------------------------------------
    def cardinality(self) -> int:
        """Exact number of architectures in the space (a Python bigint)."""
        total = 1
        for decision in self.decisions:
            total *= decision.num_choices
        return total

    def log10_size(self) -> float:
        """``log10`` of the cardinality, computed without overflow."""
        return sum(math.log10(d.num_choices) for d in self.decisions)

    # ------------------------------------------------------------------
    # Sampling and validation
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> Architecture:
        """Uniformly sample one architecture."""
        return Architecture._adopt(
            {d.name: d.choices[int(rng.integers(d.num_choices))] for d in self.decisions}
        )

    def validate(self, arch: Architecture) -> None:
        """Raise if ``arch`` does not assign every decision a legal value."""
        missing = [d.name for d in self.decisions if d.name not in arch]
        if missing:
            raise ValueError(f"architecture missing decisions: {missing}")
        extra = [name for name in arch if name not in self._by_name]
        if extra:
            raise ValueError(f"architecture has unknown decisions: {extra}")
        for decision in self.decisions:
            decision.index_of(arch[decision.name])  # raises on illegal value

    def indices_of(self, arch: Architecture) -> np.ndarray:
        """Encode ``arch`` as an integer index per decision (policy order)."""
        return np.array(
            [d.index_of(arch[d.name]) for d in self.decisions], dtype=np.int64
        )

    def architecture_from_indices(self, indices: Sequence[int]) -> Architecture:
        """Inverse of :meth:`indices_of`."""
        if len(indices) != len(self.decisions):
            raise ValueError("index vector length does not match decision count")
        return Architecture._adopt(
            {d.name: d.choices[int(i)] for d, i in zip(self.decisions, indices)}
        )

    def default_architecture(self) -> Architecture:
        """The baseline architecture: first choice of every decision.

        Concrete spaces order choices so index 0 is the baseline value
        (zero depth/width delta, baseline vocabulary, ...).
        """
        return Architecture._adopt({d.name: d.choices[0] for d in self.decisions})

    def frozen(self, assignments: Mapping[str, Any], name: Optional[str] = None) -> "SearchSpace":
        """A copy of this space with some decisions pinned to one value.

        Launch constraints routinely remove options (e.g. sequence
        pooling is illegal for per-position NLP heads); freezing keeps
        the decision present — architectures stay compatible with
        super-networks and encoders built for the full space — while
        the policy has nothing left to learn for it.
        """
        decisions = []
        for decision in self.decisions:
            if decision.name in assignments:
                value = assignments[decision.name]
                decision.index_of(value)  # raises on illegal value
                decisions.append(Decision(decision.name, (value,), decision.tags))
            else:
                decisions.append(decision)
        unknown = set(assignments) - {d.name for d in self.decisions}
        if unknown:
            raise KeyError(f"cannot freeze unknown decisions: {sorted(unknown)}")
        return SearchSpace(name or f"{self.name}_frozen", decisions)
