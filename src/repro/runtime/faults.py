"""Deterministic fault injection for the fault-tolerant runtime.

Hyperscale fleets fail in a handful of characteristic ways; each gets a
first-class, *seeded* injection so tests and benchmarks can replay the
exact same failure schedule run after run:

* ``crash`` — the worker process dies, either between steps or mid-shard
  (while cores are still scoring candidates);
* ``straggler`` — one shard stalls, delaying the step;
* ``corrupt_checkpoint`` — a snapshot file is silently damaged (bad
  disk, torn write on non-atomic storage), exercising the recovery
  fallback path;
* ``exhaust_pipeline`` — the data feed dries up mid-search.

A :class:`FaultInjector` is armed with the live search and checkpoint
store by the supervisor at the start of every attempt; each spec fires
exactly once, so a restarted attempt replays the step that killed its
predecessor without re-tripping the same fault.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

#: The supported fault kinds.
FAULT_KINDS = ("crash", "straggler", "corrupt_checkpoint", "exhaust_pipeline")


class InjectedFault(RuntimeError):
    """Base class of all injected failures."""


class InjectedCrash(InjectedFault):
    """A simulated worker death (the process would be gone)."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``step`` is the search step index the fault fires at.  ``phase``
    selects where within the step a crash lands: ``"before"`` kills the
    worker between steps, ``"mid"`` kills it mid-shard — after
    ``mid_after_calls`` supernet scoring calls of that step — and
    ``"after"`` kills it once the step completed but before the next
    checkpoint.
    """

    kind: str
    step: int
    phase: str = "before"
    #: straggler only: how long the slow shard stalls
    delay_s: float = 0.0
    #: corrupt_checkpoint only: which snapshot file to damage
    file_name: str = "arrays.bin"
    #: crash/phase="mid" only: scoring calls that succeed before death
    mid_after_calls: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected {FAULT_KINDS}")
        if self.phase not in ("before", "mid", "after"):
            raise ValueError(f"phase must be before/mid/after, got {self.phase!r}")
        if self.phase == "mid" and self.kind != "crash":
            raise ValueError("phase='mid' is only meaningful for crash faults")
        if self.step < 0:
            raise ValueError("step must be >= 0")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if self.mid_after_calls < 1:
            raise ValueError("mid_after_calls must be >= 1")


@dataclass
class FiredFault:
    """Log entry: which fault fired, at which step, on which attempt."""

    spec: FaultSpec
    step: int
    attempt: int


class _MidShardCrash:
    """Supernet proxy that dies after a set number of scoring calls.

    Everything is forwarded to the wrapped supernet, so capability
    checks (``hasattr``, the ``StackedScoring`` protocol) see exactly
    what it offers; the calls the score stage makes are counted first.
    Every call past the limit raises, but the death is recorded once,
    however many calls were in flight on a thread pool.
    """

    #: the supernet entry points of the engine's score stage
    SCORING_CALLS = ("quality", "quality_many", "quality_and_loss_many")

    def __init__(self, supernet: Any, after_calls: int, on_fire: Callable[[], None]):
        self._supernet = supernet
        self._remaining = after_calls
        self._on_fire = on_fire
        self._lock = threading.Lock()

    def _tick(self) -> None:
        with self._lock:
            self._remaining -= 1
            remaining = self._remaining
        if remaining == -1:
            self._on_fire()
        if remaining < 0:
            raise InjectedCrash("injected mid-shard crash during scoring")

    def __getattr__(self, name: str) -> Any:
        attribute = getattr(self._supernet, name)
        if name not in self.SCORING_CALLS:
            return attribute

        def counted(*args: Any, **kwargs: Any) -> Any:
            self._tick()
            return attribute(*args, **kwargs)

        return counted


class FaultInjector:
    """Fires a schedule of :class:`FaultSpec` against a supervised search.

    Deterministic by construction: the schedule is explicit, and the
    only randomness (which bytes of a checkpoint file get damaged) comes
    from a seeded generator, so a given (schedule, seed) pair produces
    the same failure trace every run.
    """

    def __init__(
        self,
        faults: Sequence[FaultSpec],
        seed: int = 0,
        sleep_fn: Optional[Callable[[float], None]] = None,
    ):
        self._pending: List[FaultSpec] = sorted(faults, key=lambda f: (f.step, f.kind))
        self._rng = np.random.default_rng(seed)
        self._sleep = sleep_fn if sleep_fn is not None else time.sleep
        self.fired: List[FiredFault] = []
        self.attempt = 0
        self._search: Any = None
        self._store: Any = None

    # -- wiring --------------------------------------------------------
    def arm(self, search: Any, store: Any) -> None:
        """Attach the injector to one attempt's live search and store."""
        self._search = search
        self._store = store
        self.attempt += 1

    @property
    def pending(self) -> List[FaultSpec]:
        return list(self._pending)

    def _take(self, step: int, phases: Sequence[str]) -> List[FaultSpec]:
        due = [f for f in self._pending if f.step == step and f.phase in phases]
        for spec in due:
            self._pending.remove(spec)
        return due

    def _record(self, spec: FaultSpec, step: int) -> None:
        self.fired.append(FiredFault(spec=spec, step=step, attempt=self.attempt))

    # -- hooks called by the step driver -------------------------------
    def before_step(self, step: int) -> None:
        """Fire all faults scheduled before/within ``step``."""
        for spec in self._take(step, ("before", "mid")):
            if spec.kind == "crash" and spec.phase == "mid":
                self._search.supernet = _MidShardCrash(
                    self._search.supernet,
                    spec.mid_after_calls,
                    on_fire=lambda spec=spec: self._record(spec, step),
                )
            elif spec.kind == "crash":
                self._record(spec, step)
                raise InjectedCrash(f"injected crash before step {step}")
            elif spec.kind == "straggler":
                self._record(spec, step)
                self._sleep(spec.delay_s)
            elif spec.kind == "corrupt_checkpoint":
                self._record(spec, step)
                self._corrupt_latest(spec)
            elif spec.kind == "exhaust_pipeline":
                self._record(spec, step)
                pipeline = getattr(self._search, "pipeline", None)
                if pipeline is None or not hasattr(pipeline, "force_exhaust"):
                    raise InjectedFault(
                        "exhaust_pipeline fault needs a search with a "
                        "force_exhaust-capable pipeline"
                    )
                pipeline.force_exhaust()

    def after_step(self, step: int) -> None:
        """Fire crash faults scheduled for after ``step`` completed."""
        for spec in self._take(step, ("after",)):
            if spec.kind == "crash":
                self._record(spec, step)
                raise InjectedCrash(f"injected crash after step {step}")

    # -- fault implementations ----------------------------------------
    def _corrupt_latest(self, spec: FaultSpec) -> None:
        """Damage bytes of the newest snapshot's ``spec.file_name``.

        A no-op when no snapshot exists yet (nothing to damage), like a
        disk fault on an empty directory.
        """
        if self._store is None:
            return
        info = self._store.latest()
        if info is None:
            return
        path = self._store.snapshot_dir(info) / spec.file_name
        if not path.exists():
            return
        data = bytearray(path.read_bytes())
        if not data:
            return
        positions = self._rng.integers(0, len(data), size=min(8, len(data)))
        for position in positions:
            data[int(position)] ^= 0xFF
        path.write_bytes(bytes(data))
