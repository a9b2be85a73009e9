"""Resumable unit loops: the shared checkpoint-driven driver.

The multi-trial baselines share one piece of scaffolding — "resume
from the newest good snapshot if its algorithm matches mine, then
advance one unit at a time, snapshotting every ``k`` completed units".
:class:`ResumableLoop` is that scaffolding once, parameterized over
what a *unit* is (a trial); subclasses supply the unit semantics and
the state dictionary, the loop supplies resume, periodic snapshots, and
the algorithm-mismatch guard.  (The per-scale Pareto sweep,
:func:`repro.core.pareto_search.trace_front`, does not run on it: it
carries its own inline resume-and-snapshot-per-target loop.)

(The RL searches use the richer stepwise protocol in
:func:`repro.runtime.supervisor.run_with_checkpoints` instead, because
their snapshots also carry the step history and a resume report — but
the payload shape and algorithm check are the same ones used here, via
:mod:`repro.runtime.checkpoint`.)
"""

from __future__ import annotations

from typing import Any, Mapping, Optional


class ResumableLoop:
    """Checkpointed execution of a loop of discrete, countable units.

    Subclasses implement:

    * :meth:`_completed_units` / :meth:`_target_units` — progress
      accounting (completed units must be derivable from restored
      state, so a resumed loop knows where it is);
    * :meth:`_advance` — run one unit;
    * :meth:`state_dict` / :meth:`load_state_dict` — everything the
      loop mutates, sufficient for bit-identical resume;
    * :meth:`build_result` — assemble the final result.
    """

    def _completed_units(self) -> int:
        raise NotImplementedError

    def _target_units(self) -> int:
        raise NotImplementedError

    def _advance(self) -> None:
        raise NotImplementedError

    def build_result(self) -> Any:
        raise NotImplementedError

    def state_dict(self) -> dict:
        raise NotImplementedError

    def load_state_dict(self, state: Mapping) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _checkpoint_payload(self) -> dict:
        from ...runtime.checkpoint import CHECKPOINT_FORMAT

        return {
            "format": CHECKPOINT_FORMAT,
            "algorithm": type(self).__name__,
            "search": self.state_dict(),
        }

    def _restore_latest(self, store: Any) -> bool:
        """Restore from the store's newest good snapshot, if any.

        Returns whether a snapshot was restored.  A snapshot in another
        format or taken by a different algorithm raises.
        """
        from ...runtime.checkpoint import check_header
        from ...runtime.recovery import resume_latest

        loaded = resume_latest(store)
        if loaded is None:
            return False
        check_header(loaded.state, type(self).__name__)
        self.load_state_dict(loaded.state["search"])
        return True

    def run_resumable(
        self,
        store: Optional[Any] = None,
        checkpoint_every: int = 25,
        resume: bool = True,
    ) -> Any:
        """Run to the unit target, optionally checkpointing to ``store``."""
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if store is not None and resume:
            self._restore_latest(store)
        target = self._target_units()
        while self._completed_units() < target:
            self._advance()
            done = self._completed_units()
            if store is not None and done % checkpoint_every == 0 and done < target:
                store.save(done, self._checkpoint_payload())
        return self.build_result()
