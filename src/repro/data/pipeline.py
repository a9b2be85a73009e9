"""In-memory data pipelines (Section 4.1 / item (1) in Figure 1).

Two pipelines implement the two data regimes the paper contrasts:

* :class:`SingleStepPipeline` — the H2O-NAS regime.  Production traffic
  is effectively infinite, so every batch is consumed exactly once, and
  the pipeline *enforces* the ordering invariant the algorithm relies
  on: the policy (architecture choices ``alpha``) must consume a batch
  before the shared weights ``W`` may train on it, guaranteeing the
  policy always scores candidates on data the weights have never seen.
  Nothing is ever persisted — batches live only in memory and are
  dropped once fully consumed.

* :class:`TwoStreamPipeline` — the TuNAS/research regime: a finite
  dataset split into disjoint train/validation streams, with reuse
  across epochs.  Used by the baseline algorithm and by the single-step
  vs two-step ablation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from .batch import Batch

BatchSource = Callable[[], Batch]


class _TelemetryMixin:
    """Optional shared telemetry handle for the pipelines.

    Pipelines are constructed before the search that owns the telemetry
    handle, so the search attaches it afterwards (see
    ``SingleStepSearch.__init__``); all recording is a no-op until then.
    """

    _telemetry: Optional[Any] = None

    def attach_telemetry(self, telemetry: Any) -> None:
        """Attach a telemetry handle unless one is already set."""
        if self._telemetry is None:
            self._telemetry = telemetry


def _source_owner(source: BatchSource) -> object:
    """The stateful object behind a batch source callable.

    Sources are usually bound methods (``teacher.next_batch``); the
    owning instance is what carries the rng/cursor state a checkpoint
    must capture.  Bare callables are their own owner.
    """
    return getattr(source, "__self__", source)


def capture_source_state(source: BatchSource) -> Optional[dict]:
    """Snapshot the source's state via its ``state_dict``, if it has one."""
    owner = _source_owner(source)
    state_dict = getattr(owner, "state_dict", None)
    return state_dict() if callable(state_dict) else None


def restore_source_state(source: BatchSource, state: Optional[dict]) -> None:
    """Restore a :func:`capture_source_state` snapshot into the source.

    A snapshot taken from a stateful source can only be restored into a
    source that knows how to load it — silently skipping would break the
    bit-identical resume guarantee, so that case raises.
    """
    if state is None:
        return
    owner = _source_owner(source)
    load = getattr(owner, "load_state_dict", None)
    if not callable(load):
        raise PipelineProtocolError(
            f"checkpoint carries batch-source state but {type(owner).__name__} "
            "has no load_state_dict to restore it into"
        )
    load(state)


class PipelineProtocolError(RuntimeError):
    """Raised when a consumer violates the single-use/ordering protocol."""


class PipelineExhausted(PipelineProtocolError):
    """Raised when a bounded pipeline has no fresh batches left.

    Deliberately *not* a ``StopIteration`` subclass: a ``StopIteration``
    escaping into a ``for`` loop or generator silently terminates the
    iteration, which turned budget exhaustion mid-search into a truncated
    run with no error.  Exhaustion is loud now.
    """


class SingleStepPipeline(_TelemetryMixin):
    """Streaming pipeline with single-use, policy-before-weights batches.

    Bookkeeping is O(outstanding batches), not O(stream length): a batch's
    record is dropped the moment it is fully consumed, and single-delivery
    is enforced through the stream's monotone batch ids (see
    :class:`~repro.data.batch.Batch`) with an O(1) high-watermark.
    """

    def __init__(self, source: BatchSource, max_batches: Optional[int] = None):
        self._source = source
        self._max_batches = max_batches
        self._issued = 0
        #: batch_id -> consumption state, for *outstanding* batches only
        #: ("issued" | "policy"); fully-consumed entries are evicted.
        self._outstanding: Dict[int, str] = {}
        #: highest batch id ever issued — O(1) re-delivery detection.
        self._id_watermark = -1
        self._peak_outstanding = 0

    # ------------------------------------------------------------------
    @property
    def batches_issued(self) -> int:
        return self._issued

    def exhausted(self) -> bool:
        return self._max_batches is not None and self._issued >= self._max_batches

    def force_exhaust(self) -> None:
        """Cut the stream off now: the next fetch raises.

        Models an upstream feed drying up mid-search; the fault-injection
        harness (:mod:`repro.runtime.faults`) uses it to simulate an
        exhausted data pipeline.
        """
        self._max_batches = self._issued

    def next_batch(self) -> Batch:
        """Fetch the next fresh batch from the stream."""
        if self.exhausted():
            if self._telemetry is not None:
                self._telemetry.event(
                    "pipeline.exhausted",
                    issued=self._issued,
                    max_batches=self._max_batches,
                )
            raise PipelineExhausted(
                f"pipeline exhausted after {self._issued} batches "
                f"(max_batches={self._max_batches})"
            )
        batch = self._source()
        if batch.batch_id <= self._id_watermark:
            raise PipelineProtocolError(
                f"source re-issued batch {batch.batch_id} (ids must be fresh "
                f"and increasing; watermark={self._id_watermark}); production "
                "traffic must deliver each example once"
            )
        self._id_watermark = batch.batch_id
        self._outstanding[batch.batch_id] = "issued"
        self._peak_outstanding = max(self._peak_outstanding, len(self._outstanding))
        self._issued += 1
        if self._telemetry is not None:
            self._telemetry.counter("pipeline.batches").inc()
            self._telemetry.gauge("pipeline.watermark").set(self._id_watermark)
            self._telemetry.gauge("pipeline.outstanding").set(
                len(self._outstanding)
            )
            self._telemetry.gauge("pipeline.peak_outstanding").set(
                self._peak_outstanding
            )
        return batch

    def next_shard(self, count: int) -> List[Batch]:
        """Fetch one batch per parallel core, in core order.

        The shard hand-off point for the search engine's fetch stage:
        one call delivers the whole step's batches.  The source is
        always drained sequentially on the caller's thread — batch ids
        must stay monotone and the source's rng state is part of the
        bit-identity contract — so this is bookkeeping sugar, not a
        parallelism point.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        return [self.next_batch() for _ in range(count)]

    def mark_policy_use(self, batch: Batch) -> None:
        """Record that the RL policy consumed ``batch`` (must come first)."""
        state = self._outstanding.get(batch.batch_id)
        if state is None:
            if batch.batch_id > self._id_watermark:
                raise PipelineProtocolError(
                    f"batch {batch.batch_id} was never issued"
                )
            raise PipelineProtocolError(
                f"batch {batch.batch_id} already fully consumed "
                "(state='weights'; record dropped)"
            )
        if state != "issued":
            raise PipelineProtocolError(
                f"batch {batch.batch_id} already consumed by the policy "
                f"(state={state!r})"
            )
        self._outstanding[batch.batch_id] = "policy"

    def mark_weight_use(self, batch: Batch) -> None:
        """Record that shared-weight training consumed ``batch``.

        Raises unless the policy consumed the batch first — the paper's
        "learning alpha always precedes training W" guarantee.
        """
        state = self._outstanding.get(batch.batch_id)
        if state is None:
            if batch.batch_id > self._id_watermark:
                raise PipelineProtocolError(
                    f"batch {batch.batch_id} was never issued"
                )
            raise PipelineProtocolError(
                f"batch {batch.batch_id} already used for weight training; "
                "every example is used at most once"
            )
        if state == "issued":
            raise PipelineProtocolError(
                f"batch {batch.batch_id}: weights may not train on data the "
                "policy has not yet scored (policy-before-weights invariant)"
            )
        # Fully consumed: drop all record of the data (in-memory only).
        del self._outstanding[batch.batch_id]
        if self._telemetry is not None:
            self._telemetry.gauge("pipeline.outstanding").set(
                len(self._outstanding)
            )

    def release(self, batch: Batch) -> None:
        """Retire a policy-scored batch that will never train weights.

        Policy-only searches (see
        :class:`repro.core.elastic.SpecializationSearch`) score candidates
        on fresh traffic but never run a weight update, so without an
        explicit release every batch record would stay outstanding for
        the whole run — O(steps) bookkeeping growth.  Releasing still
        requires the policy to have consumed the batch first, preserving
        the ordering invariant.
        """
        state = self._outstanding.get(batch.batch_id)
        if state is None:
            if batch.batch_id > self._id_watermark:
                raise PipelineProtocolError(
                    f"batch {batch.batch_id} was never issued"
                )
            raise PipelineProtocolError(
                f"batch {batch.batch_id} already fully consumed"
            )
        if state == "issued":
            raise PipelineProtocolError(
                f"batch {batch.batch_id}: only policy-scored batches may be "
                "released (policy-before-release invariant)"
            )
        del self._outstanding[batch.batch_id]
        if self._telemetry is not None:
            self._telemetry.gauge("pipeline.outstanding").set(
                len(self._outstanding)
            )

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpoint-ready snapshot of counters plus the source's state.

        Outstanding-batch records are stored as ``[batch_id, state]``
        pairs (searches checkpoint at step boundaries, where the list is
        empty, but the snapshot is faithful either way).  The batch data
        itself is never persisted — production traffic must not touch
        disk; a resumed run re-draws from the restored source stream.
        """
        return {
            "issued": self._issued,
            "id_watermark": self._id_watermark,
            "peak_outstanding": self._peak_outstanding,
            "outstanding": [[bid, st] for bid, st in self._outstanding.items()],
            "source": capture_source_state(self._source),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        self._issued = int(state["issued"])
        self._id_watermark = int(state["id_watermark"])
        self._peak_outstanding = int(state["peak_outstanding"])
        self._outstanding = {int(bid): str(st) for bid, st in state["outstanding"]}
        restore_source_state(self._source, state["source"])


class TwoStreamPipeline(_TelemetryMixin):
    """Finite train/validation streams with reuse (the research regime)."""

    def __init__(
        self,
        source: BatchSource,
        train_batches: int,
        valid_batches: int,
    ):
        if train_batches < 1 or valid_batches < 1:
            raise ValueError("both splits need at least one batch")
        self._train: List[Batch] = [source() for _ in range(train_batches)]
        self._valid: List[Batch] = [source() for _ in range(valid_batches)]
        self._train_cursor = 0
        self._valid_cursor = 0
        self.train_reuses = 0
        self.valid_reuses = 0

    def next_train_batch(self) -> Batch:
        """Next training batch, cycling with reuse across epochs."""
        batch = self._train[self._train_cursor]
        self._train_cursor += 1
        if self._train_cursor == len(self._train):
            self._train_cursor = 0
            self.train_reuses += 1
        if self._telemetry is not None:
            self._telemetry.counter("pipeline.batches").inc(split="train")
            self._telemetry.gauge("pipeline.reuses").set(
                self.train_reuses, split="train"
            )
        return batch

    def next_valid_batch(self) -> Batch:
        """Next validation batch, cycling with reuse."""
        batch = self._valid[self._valid_cursor]
        self._valid_cursor += 1
        if self._valid_cursor == len(self._valid):
            self._valid_cursor = 0
            self.valid_reuses += 1
        if self._telemetry is not None:
            self._telemetry.counter("pipeline.batches").inc(split="valid")
            self._telemetry.gauge("pipeline.reuses").set(
                self.valid_reuses, split="valid"
            )
        return batch

    @property
    def train_size(self) -> int:
        return len(self._train)

    @property
    def valid_size(self) -> int:
        return len(self._valid)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Cursor/reuse snapshot.

        The split batches themselves are drawn once at construction from
        a (seeded) source, so a resumed run rebuilds identical splits by
        reconstructing the pipeline and only needs the cursors restored.
        """
        return {
            "train_cursor": self._train_cursor,
            "valid_cursor": self._valid_cursor,
            "train_reuses": self.train_reuses,
            "valid_reuses": self.valid_reuses,
            "train_size": len(self._train),
            "valid_size": len(self._valid),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        if (
            int(state["train_size"]) != len(self._train)
            or int(state["valid_size"]) != len(self._valid)
        ):
            raise PipelineProtocolError(
                "checkpoint was taken with different train/valid split sizes"
            )
        self._train_cursor = int(state["train_cursor"])
        self._valid_cursor = int(state["valid_cursor"])
        self.train_reuses = int(state["train_reuses"])
        self.valid_reuses = int(state["valid_reuses"])
