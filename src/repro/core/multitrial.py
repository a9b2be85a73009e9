"""Multi-trial search baselines: random search and regularized evolution.

The paper's taxonomy (Section 2.1) contrasts one-shot NAS against
multi-trial NAS, where every candidate is trained and evaluated in its
own independent trial — "straightforward to implement, but
cost-prohibitive if the individual trials are large in scale" — and
notes that evolution-based algorithms cannot drive one-shot searches
because their rewards must be comparable across steps.  These baselines
make both points measurable: they consume an ``evaluate_fn`` whose cost
stands for one full trial, so comparing them against the single-step
search at a matched evaluation budget reproduces the efficiency
argument (see ``benchmarks/bench_ablation_strategy.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Mapping, Optional, Tuple

import numpy as np

from ..searchspace.base import Architecture, SearchSpace
from .eval_runtime import MemoizedEvaluate
from .reward import RewardFunction

#: One trial: architecture -> (quality, performance metrics).
EvaluateFn = Callable[[Architecture], Tuple[float, Mapping[str, float]]]


def _encode_trial(space: SearchSpace, trial: "Trial") -> dict:
    """A trial as plain data (the architecture becomes its index vector)."""
    return {
        "indices": [int(i) for i in space.indices_of(trial.architecture)],
        "quality": float(trial.quality),
        "metrics": {k: float(v) for k, v in trial.metrics.items()},
        "reward": float(trial.reward),
    }


def _decode_trial(space: SearchSpace, payload: Mapping) -> "Trial":
    return Trial(
        architecture=space.architecture_from_indices(payload["indices"]),
        quality=float(payload["quality"]),
        metrics={k: float(v) for k, v in payload["metrics"].items()},
        reward=float(payload["reward"]),
    )


@dataclass
class Trial:
    """One completed independent trial."""

    architecture: Architecture
    quality: float
    metrics: Mapping[str, float]
    reward: float


@dataclass
class MultiTrialResult:
    """Outcome of a multi-trial search.

    ``cache_hits`` counts trials answered from the memoized evaluation
    cache — duplicated candidates that did not pay for a fresh trial.
    """

    best: Trial
    trials: List[Trial] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    def rewards(self) -> np.ndarray:
        return np.array([t.reward for t in self.trials])

    def best_reward_curve(self) -> np.ndarray:
        """Running best reward after each trial (sample-efficiency view)."""
        return np.maximum.accumulate(self.rewards())


class _ResumableTrialLoop:
    """Shared stepwise/checkpoint machinery of the multi-trial searches.

    Trials accumulate on ``self.trials``; ``step()`` runs one trial, so
    the driver (:meth:`run`, or an external supervisor) can snapshot at
    any trial boundary.  The rng and the memoized-evaluation cache are
    part of the state, so a resumed search replays the remaining trials
    bit-identically.  (The RL searches use the richer stepwise protocol
    in :func:`repro.runtime.supervisor.run_with_checkpoints`; the payload
    shape and algorithm check are the same ones, via
    :mod:`repro.runtime.checkpoint`.)
    """

    def _target_trials(self) -> int:
        raise NotImplementedError

    def step(self) -> Trial:
        raise NotImplementedError

    def _checkpoint_payload(self) -> dict:
        from ..runtime.checkpoint import CHECKPOINT_FORMAT

        return {
            "format": CHECKPOINT_FORMAT,
            "algorithm": type(self).__name__,
            "search": self.state_dict(),
        }

    def run(self, store=None, checkpoint_every: int = 25, resume: bool = True) -> MultiTrialResult:
        """Run to the trial budget, optionally checkpointing to ``store``:
        resume from its newest good snapshot (one in another format or
        taken by a different algorithm raises), then snapshot every
        ``checkpoint_every`` completed trials."""
        from ..runtime.checkpoint import check_header
        from ..runtime.recovery import resume_latest

        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        loaded = resume_latest(store) if store is not None and resume else None
        if loaded is not None:
            check_header(loaded.state, type(self).__name__)
            self.load_state_dict(loaded.state["search"])
        target = self._target_trials()
        while len(self.trials) < target:
            self.step()
            done = len(self.trials)
            if store is not None and done % checkpoint_every == 0 and done < target:
                store.save(done, self._checkpoint_payload())
        return self.build_result()

    def build_result(self) -> MultiTrialResult:
        return _result(list(self.trials), self._evaluate)

    def state_dict(self) -> dict:
        state = {
            "rng": self._rng.bit_generator.state,
            "trials": [_encode_trial(self.space, t) for t in self.trials],
            "evaluate": (
                self._evaluate.export_state()
                if isinstance(self._evaluate, MemoizedEvaluate)
                else None
            ),
        }
        state.update(self._extra_state())
        return state

    def load_state_dict(self, state: Mapping) -> None:
        self._rng.bit_generator.state = state["rng"]
        self.trials = [_decode_trial(self.space, t) for t in state["trials"]]
        if state["evaluate"] is not None:
            if not isinstance(self._evaluate, MemoizedEvaluate):
                raise ValueError(
                    "checkpoint carries an evaluation cache but this search "
                    "runs with use_cache=False"
                )
            self._evaluate.import_state(state["evaluate"])
        self._load_extra_state(state)

    def _extra_state(self) -> dict:
        return {}

    def _load_extra_state(self, state: Mapping) -> None:
        del state

    def _trial(self, arch: Architecture) -> Trial:
        quality, metrics = self._evaluate(arch)
        return Trial(arch, quality, metrics, self.reward_fn(quality, metrics))


class RandomSearch(_ResumableTrialLoop):
    """Uniformly sample candidates; keep the best reward."""

    def __init__(
        self,
        space: SearchSpace,
        evaluate_fn: EvaluateFn,
        reward_fn: RewardFunction,
        num_trials: int = 100,
        seed: int = 0,
        use_cache: bool = True,
        cache_size: int = 4096,
    ):
        if num_trials < 1:
            raise ValueError("num_trials must be >= 1")
        self.space = space
        self.evaluate_fn = evaluate_fn
        self.reward_fn = reward_fn
        self.num_trials = num_trials
        self.trials: List[Trial] = []
        self._rng = np.random.default_rng(seed)
        self._evaluate = (
            MemoizedEvaluate(space, evaluate_fn, cache_size) if use_cache else evaluate_fn
        )

    def _target_trials(self) -> int:
        return self.num_trials

    def step(self) -> Trial:
        trial = self._trial(self.space.sample(self._rng))
        self.trials.append(trial)
        return trial


@dataclass(frozen=True)
class EvolutionConfig:
    """Regularized-evolution hyper-parameters (Real et al., 2019)."""

    population_size: int = 20
    tournament_size: int = 5
    num_trials: int = 100
    mutations_per_child: int = 1

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not (1 <= self.tournament_size <= self.population_size):
            raise ValueError("tournament_size must be in [1, population_size]")
        if self.num_trials < self.population_size:
            raise ValueError("num_trials must cover the initial population")
        if self.mutations_per_child < 1:
            raise ValueError("mutations_per_child must be >= 1")


def _result(trials: List[Trial], evaluate: EvaluateFn) -> MultiTrialResult:
    """Assemble a result, lifting cache counters off a memoized evaluate."""
    cache = evaluate.cache if isinstance(evaluate, MemoizedEvaluate) else None
    return MultiTrialResult(
        best=max(trials, key=lambda t: t.reward),
        trials=trials,
        cache_hits=cache.hits if cache else 0,
        cache_misses=cache.misses if cache else 0,
    )


class EvolutionarySearch(_ResumableTrialLoop):
    """Aging evolution: tournament parent selection, mutate, drop oldest.

    The population is tracked as a deque of *trial indices* so it
    serializes alongside the trial log; one ``step()`` either seeds a
    random founder or runs one tournament/mutate/evaluate/age-out cycle.
    """

    def __init__(
        self,
        space: SearchSpace,
        evaluate_fn: EvaluateFn,
        reward_fn: RewardFunction,
        config: Optional[EvolutionConfig] = None,
        seed: int = 0,
        use_cache: bool = True,
        cache_size: int = 4096,
    ):
        self.space = space
        self.evaluate_fn = evaluate_fn
        self.reward_fn = reward_fn
        self.config = config if config is not None else EvolutionConfig()
        self.trials: List[Trial] = []
        self._population: Deque[int] = deque()
        self._rng = np.random.default_rng(seed)
        self._evaluate = (
            MemoizedEvaluate(space, evaluate_fn, cache_size) if use_cache else evaluate_fn
        )

    def _target_trials(self) -> int:
        return self.config.num_trials

    def step(self) -> Trial:
        cfg = self.config
        if len(self.trials) < cfg.population_size:
            # Still seeding the population with random founders.
            trial = self._trial(self.space.sample(self._rng))
        else:
            contestants = [
                self.trials[self._population[int(self._rng.integers(len(self._population)))]]
                for _ in range(cfg.tournament_size)
            ]
            parent = max(contestants, key=lambda t: t.reward)
            trial = self._trial(self.mutate(parent.architecture))
        self._population.append(len(self.trials))
        self.trials.append(trial)
        if len(self._population) > cfg.population_size:
            self._population.popleft()
        return trial

    def _extra_state(self) -> dict:
        return {"population": [int(i) for i in self._population]}

    def _load_extra_state(self, state: Mapping) -> None:
        self._population = deque(int(i) for i in state["population"])

    def mutate(self, arch: Architecture) -> Architecture:
        """Re-roll ``mutations_per_child`` random decisions to new values."""
        updates = {}
        for _ in range(self.config.mutations_per_child):
            decision = self.space.decisions[
                int(self._rng.integers(len(self.space.decisions)))
            ]
            current = arch[decision.name]
            alternatives = [c for c in decision.choices if c != current]
            if alternatives:
                updates[decision.name] = alternatives[
                    int(self._rng.integers(len(alternatives)))
                ]
        return arch.replaced(**updates)

    def _trial(self, arch: Architecture) -> Trial:
        quality, metrics = self._evaluate(arch)
        return Trial(arch, quality, metrics, self.reward_fn(quality, metrics))
