"""Versioned, checksummed snapshots of full search state.

A production search loses a worker every few hours, not every few
months; the checkpoint layer makes that loss cost at most
``checkpoint_every`` steps of replay instead of the whole run.  One
snapshot captures *everything* the search algorithms mutate:

* policy logits and the REINFORCE baseline;
* super-network weights and optimizer moments;
* the eval-runtime cache (contents and hit/miss counters);
* every rng bit-generator state (controller, warmup sampler, batch
  source, surrogate noise), so a resumed run draws the same streams;
* pipeline counters and the step history recorded so far.

Snapshots live in a manifest-indexed directory::

    <root>/
      MANIFEST.json                 # index; updated atomically, last
      snap-000003-step-000020/      # one directory per snapshot
        state.json                  # scalars, rng states, array index
        arrays.bin                  # one concatenated buffer per dtype

Search state holds hundreds of small parameter arrays; writing each as
its own archive member costs more in bookkeeping than in data.  The
store therefore streams all arrays of one dtype back to back under a
single raw ``.npy`` header into ``arrays.bin`` (one flat buffer per
dtype on disk, never assembled in memory), and keeps the (buffer,
offset, shape) index in ``state.json``.  Both files are hashed as they
are written; only the verifying load path reads them back.

A snapshot becomes visible only when the manifest names it, and the
manifest itself is replaced atomically (see :mod:`repro.runtime.atomic`),
so a crash mid-snapshot can never present a half-written checkpoint as
valid.  Every file's SHA-256 is recorded in the manifest; recovery
(:mod:`repro.runtime.recovery`) verifies it before trusting a snapshot
and falls back to the previous one on mismatch.
"""

from __future__ import annotations

import io
import json
import math
import os
import pathlib
import shutil
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.search import CandidateRecord, StepRecord
from ..searchspace.base import SearchSpace
from .atomic import atomic_write_json, file_sha256, write_hashed

PathLike = Union[str, pathlib.Path]

#: Version of the on-disk snapshot payload layout.  3: supernet weights
#: and optimizer moments are float32 (2 held float64 ones; a search
#: snapshot times only the canonical ``STAGES``).  Older payloads are
#: rejected by :func:`check_header`.
CHECKPOINT_FORMAT = 3


class CheckpointError(RuntimeError):
    """Base error of the checkpoint subsystem."""


class CheckpointCorruptError(CheckpointError):
    """A snapshot failed checksum or structural verification."""


# ----------------------------------------------------------------------
# State tree <-> (JSON tree, array table)
# ----------------------------------------------------------------------

_ARRAY_MARKER = "__ndarray__"


def pack_state(state: Any) -> Tuple[Any, List[np.ndarray]]:
    """Split a nested state tree into a JSON-safe tree plus its arrays.

    Every ``np.ndarray`` leaf is replaced by ``{"__ndarray__": i}`` and
    collected into the returned array table (:func:`encode_state` lays
    it out as raw per-dtype buffers).  Numpy scalars collapse to
    Python scalars — an exact conversion for the int64, float64 and
    float32 scalars search state contains (a float32 widens exactly).
    """
    arrays: List[np.ndarray] = []

    def walk(node: Any) -> Any:
        if isinstance(node, np.ndarray):
            arrays.append(node)
            return {_ARRAY_MARKER: len(arrays) - 1}
        if isinstance(node, np.generic):
            return node.item()
        # Leaves and lists first: ``typing.Mapping``'s check is slow, and
        # worker frames go through this walk on every task.
        if node is None or isinstance(node, (bool, int, float, str)):
            return node
        if isinstance(node, (list, tuple)):
            return [walk(item) for item in node]
        if isinstance(node, (dict, Mapping)):
            packed = {}
            for key, value in node.items():
                if not isinstance(key, str):
                    raise CheckpointError(
                        f"state keys must be strings, got {key!r} "
                        f"({type(key).__name__})"
                    )
                if key == _ARRAY_MARKER:
                    raise CheckpointError(
                        f"state key {_ARRAY_MARKER!r} is reserved"
                    )
                packed[key] = walk(value)
            return packed
        raise CheckpointError(
            f"cannot checkpoint value of type {type(node).__name__}: {node!r}"
        )

    return walk(state), arrays


def unpack_state(tree: Any, arrays: Sequence[np.ndarray]) -> Any:
    """Inverse of :func:`pack_state`."""

    def walk(node: Any) -> Any:
        if isinstance(node, dict):
            if set(node) == {_ARRAY_MARKER}:
                return arrays[int(node[_ARRAY_MARKER])]
            return {key: walk(value) for key, value in node.items()}
        if isinstance(node, list):
            return [walk(item) for item in node]
        return node

    return walk(tree)


#: The array kinds a snapshot or a worker frame may hold (bool, int,
#: unsigned, float); anything else is refused both ways.
ARRAY_KINDS = "biuf"


def encode_state(state: Any) -> Tuple[dict, List[List[np.ndarray]]]:
    """``state`` as ``(document, buffers)``: the JSON document
    ``state.json`` holds — ``{"tree", "buffers", "arrays"}``: the packed
    tree, one dtype per buffer and a ``(buffer, offset, shape)`` entry
    per array — and per buffer its arrays, flattened, in entry order."""
    tree, arrays = pack_state(state)
    buffers: Dict[str, List[np.ndarray]] = {}
    sizes: Dict[str, int] = {}
    index: List[dict] = []
    for array in arrays:
        name = array.dtype.str
        if array.dtype.kind not in ARRAY_KINDS:
            raise ValueError(f"Object arrays and other {name!r} arrays cannot be encoded")
        chunks = buffers.setdefault(name, [])
        offset = sizes.get(name, 0)
        index.append(
            {"buffer": list(buffers).index(name), "offset": offset, "shape": list(array.shape)}
        )
        chunks.append(np.ascontiguousarray(array).reshape(-1))
        sizes[name] = offset + array.size
    return {"tree": tree, "buffers": list(buffers), "arrays": index}, list(buffers.values())


def decode_state(
    document: Mapping[str, Any], read_buffer: Callable[[np.dtype, int], np.ndarray]
) -> Any:
    """Inverse of :func:`encode_state`; ``read_buffer(dtype, count)``
    returns the next buffer as a 1-d array.  The index must account for
    every element exactly: entries laid back to back from offset 0, no
    negative extent, no buffer longer than its entries."""
    dtypes = [np.dtype(name) for name in document["buffers"]]
    if any(dtype.kind not in ARRAY_KINDS for dtype in dtypes):
        raise ValueError(f"refusing buffer dtypes {document['buffers']}")
    counts, index = [0] * len(dtypes), []
    for entry in document["arrays"]:
        buffer, offset = int(entry["buffer"]), int(entry["offset"])
        shape = tuple(int(n) for n in entry["shape"])
        if not 0 <= buffer < len(dtypes) or offset != counts[buffer] or min(shape, default=0) < 0:
            raise ValueError(f"array entry {entry} does not follow its buffer's last one")
        index.append((buffer, offset, shape))
        counts[buffer] += math.prod(shape)
    buffers = [read_buffer(dtype, count) for dtype, count in zip(dtypes, counts)]
    arrays = [buffers[b][o : o + math.prod(shape)].reshape(shape) for b, o, shape in index]
    return unpack_state(document["tree"], arrays)


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SnapshotInfo:
    """One manifest entry: where a snapshot lives and what it must hash to."""

    snapshot_id: str
    step: int  #: number of completed search steps the snapshot captures
    seq: int  #: monotone sequence number (manifest order)
    files: Mapping[str, str]  #: file name -> expected SHA-256 hex digest
    created_at: float


class CheckpointStore:
    """Atomic, manifest-indexed snapshot directory with retention.

    ``keep_last`` bounds disk use: after each save, only the newest
    ``keep_last`` snapshots stay in the manifest and on disk.  Keeping
    more than one matters — corruption recovery falls back to the
    previous snapshot when the latest fails its checksum.
    """

    MANIFEST_NAME = "MANIFEST.json"
    STATE_NAME = "state.json"
    ARRAYS_NAME = "arrays.bin"
    _MANIFEST_VERSION = 1

    def __init__(
        self, root: PathLike, keep_last: int = 3, telemetry: Optional[Any] = None
    ):
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        self.root = pathlib.Path(root)
        self.keep_last = keep_last
        self.root.mkdir(parents=True, exist_ok=True)
        #: optional shared telemetry; ``checkpoint.*`` metrics are churn
        #: scoped (never rolled back on resume — the saves really happened)
        self.telemetry = telemetry

    def attach_telemetry(self, telemetry: Any) -> None:
        """Attach a telemetry handle unless one is already set."""
        if self.telemetry is None:
            self.telemetry = telemetry

    # -- manifest ------------------------------------------------------
    @property
    def _manifest_path(self) -> pathlib.Path:
        return self.root / self.MANIFEST_NAME

    def _read_manifest(self) -> dict:
        if not self._manifest_path.exists():
            return {"version": self._MANIFEST_VERSION, "next_seq": 0, "snapshots": []}
        try:
            manifest = json.loads(self._manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise CheckpointCorruptError(
                f"unreadable checkpoint manifest {self._manifest_path}: {error}"
            ) from error
        if manifest.get("version") != self._MANIFEST_VERSION:
            raise CheckpointError(
                f"unsupported manifest version {manifest.get('version')!r}"
            )
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        atomic_write_json(self._manifest_path, manifest, indent=2, sort_keys=True)

    @staticmethod
    def _info_from_entry(entry: dict) -> SnapshotInfo:
        return SnapshotInfo(
            snapshot_id=entry["id"],
            step=int(entry["step"]),
            seq=int(entry["seq"]),
            files=dict(entry["files"]),
            created_at=float(entry["created_at"]),
        )

    def snapshots(self) -> List[SnapshotInfo]:
        """All manifest-visible snapshots, oldest first."""
        return [self._info_from_entry(e) for e in self._read_manifest()["snapshots"]]

    def latest(self) -> Optional[SnapshotInfo]:
        """The newest manifest-visible snapshot, if any."""
        entries = self.snapshots()
        return entries[-1] if entries else None

    def snapshot_dir(self, info: SnapshotInfo) -> pathlib.Path:
        return self.root / info.snapshot_id

    # -- save ----------------------------------------------------------
    def save(self, step: int, state: Any) -> SnapshotInfo:
        """Persist ``state`` as the snapshot for ``step`` completed steps.

        The snapshot directory is staged under a temporary name, renamed
        into place, and only then referenced from the manifest — each
        transition atomic, so readers never observe a partial snapshot.
        """
        save_started = time.perf_counter()
        manifest = self._read_manifest()
        seq = int(manifest["next_seq"])
        snapshot_id = f"snap-{seq:06d}-step-{step:06d}"
        final_dir = self.root / snapshot_id
        staging = self.root / f".tmp-{snapshot_id}-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)

        document, buffers = encode_state(state)

        def segments():
            # One 1-d ``.npy`` segment per dtype, its arrays streamed
            # back to back under a single header.
            for chunks in buffers:
                header = io.BytesIO()
                np.lib.format.write_array_header_1_0(
                    header,
                    {
                        "descr": np.lib.format.dtype_to_descr(chunks[0].dtype),
                        "fortran_order": False,
                        "shape": (sum(chunk.size for chunk in chunks),),
                    },
                )
                yield header.getvalue()
                for chunk in chunks:
                    yield chunk.view(np.uint8)

        files = {
            self.STATE_NAME: write_hashed(
                staging / self.STATE_NAME,
                [json.dumps(document, separators=(",", ":")).encode("utf-8")],
            ),
            self.ARRAYS_NAME: write_hashed(staging / self.ARRAYS_NAME, segments()),
        }
        if final_dir.exists():  # stray dir from a dead run; never manifest-visible
            shutil.rmtree(final_dir)
        os.replace(staging, final_dir)

        entry = {
            "id": snapshot_id,
            "step": int(step),
            "seq": seq,
            "files": files,
            # Wall clock for humans; monotonic anchor so age/ordering
            # math within one process survives clock steps.
            "created_at": time.time(),
            "created_monotonic": time.monotonic(),
        }
        manifest["snapshots"].append(entry)
        manifest["next_seq"] = seq + 1
        retired = manifest["snapshots"][: -self.keep_last]
        manifest["snapshots"] = manifest["snapshots"][-self.keep_last :]
        self._write_manifest(manifest)
        # Old snapshot dirs are deleted only after the manifest stopped
        # naming them, so a crash here at worst leaks a directory.
        for old in retired:
            shutil.rmtree(self.root / old["id"], ignore_errors=True)
        self._sweep_staging()
        if self.telemetry is not None:
            self.telemetry.counter("checkpoint.saves").inc()
            self.telemetry.registry.histogram("checkpoint.save_seconds").observe(
                time.perf_counter() - save_started
            )
            self.telemetry.event(
                "checkpoint.save", step=int(step), snapshot_id=snapshot_id, seq=seq
            )
        return self._info_from_entry(entry)

    def _sweep_staging(self) -> None:
        """Remove staging directories a crashed writer left behind."""
        for path in self.root.glob(".tmp-*"):
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)

    # -- load ----------------------------------------------------------
    def load(self, info: SnapshotInfo) -> Any:
        """Read and verify one snapshot, returning the restored state tree.

        Raises :class:`CheckpointCorruptError` if any file is missing,
        fails its manifest checksum, or does not parse.
        """
        try:
            state = self._load_verified(info)
        except CheckpointCorruptError as error:
            if self.telemetry is not None:
                self.telemetry.counter("checkpoint.corrupt").inc()
                self.telemetry.event(
                    "checkpoint.corrupt",
                    snapshot_id=info.snapshot_id,
                    error=str(error),
                )
            raise
        if self.telemetry is not None:
            self.telemetry.counter("checkpoint.loads").inc()
            self.telemetry.event(
                "checkpoint.load", step=info.step, snapshot_id=info.snapshot_id
            )
        return state

    def _load_verified(self, info: SnapshotInfo) -> Any:
        directory = self.snapshot_dir(info)
        for name, expected in info.files.items():
            path = directory / name
            if not path.exists():
                raise CheckpointCorruptError(
                    f"snapshot {info.snapshot_id}: missing file {name}"
                )
            actual = file_sha256(path)
            if actual != expected:
                raise CheckpointCorruptError(
                    f"snapshot {info.snapshot_id}: checksum mismatch on {name} "
                    f"(expected {expected[:12]}…, got {actual[:12]}…)"
                )
        try:
            document = json.loads((directory / self.STATE_NAME).read_text())
            with open(directory / self.ARRAYS_NAME, "rb") as handle:
                return decode_state(
                    document, lambda *_: np.lib.format.read_array(handle, allow_pickle=False)
                )
        except Exception as error:
            raise CheckpointCorruptError(
                f"snapshot {info.snapshot_id}: unreadable payload: {error}"
            ) from error


# ----------------------------------------------------------------------
# Search-state payloads
# ----------------------------------------------------------------------


def encode_history(space: SearchSpace, history: Sequence[StepRecord]) -> list:
    """History records as plain data (architectures become index vectors)."""
    return [
        {
            "step": record.step,
            "mean_reward": float(record.mean_reward),
            "mean_quality": float(record.mean_quality),
            "policy_entropy": float(record.policy_entropy),
            "candidates": [
                {
                    "indices": [int(i) for i in space.indices_of(c.architecture)],
                    "quality": float(c.quality),
                    "metrics": {k: float(v) for k, v in c.metrics.items()},
                    "reward": float(c.reward),
                }
                for c in record.candidates
            ],
        }
        for record in history
    ]


def decode_history(space: SearchSpace, payload: Sequence[dict]) -> List[StepRecord]:
    """Inverse of :func:`encode_history`."""
    return [
        StepRecord(
            step=int(entry["step"]),
            mean_reward=float(entry["mean_reward"]),
            mean_quality=float(entry["mean_quality"]),
            policy_entropy=float(entry["policy_entropy"]),
            candidates=[
                CandidateRecord(
                    architecture=space.architecture_from_indices(c["indices"]),
                    quality=float(c["quality"]),
                    metrics={k: float(v) for k, v in c["metrics"].items()},
                    reward=float(c["reward"]),
                )
                for c in entry["candidates"]
            ],
        )
        for entry in payload
    ]


def check_header(payload: Mapping[str, Any], algorithm: str) -> None:
    """Refuse a snapshot payload ``algorithm`` cannot restore from: one
    in another payload format, or one another algorithm took (a
    lookalike state dictionary must not load silently)."""
    found = (payload.get("format"), payload.get("algorithm"))
    if found != (CHECKPOINT_FORMAT, algorithm):
        raise CheckpointError(
            f"checkpoint has format {found[0]!r} and was taken by {found[1]!r}; "
            f"expected format {CHECKPOINT_FORMAT} taken by {algorithm!r}"
        )


def search_checkpoint_payload(
    search: Any, next_step: int, history: Sequence[StepRecord]
) -> dict:
    """The full snapshot payload for a (single-step or TuNAS) search."""
    return {
        "format": CHECKPOINT_FORMAT,
        "algorithm": type(search).__name__,
        "next_step": int(next_step),
        "history": encode_history(search.space, history),
        "search": search.state_dict(),
    }


def restore_search(search: Any, payload: Mapping[str, Any]) -> Tuple[int, List[StepRecord]]:
    """Load a :func:`search_checkpoint_payload` back into ``search``.

    Returns ``(next_step, history)``: the step index to resume from and
    the step records completed before the snapshot.
    """
    check_header(payload, type(search).__name__)
    search.load_state_dict(payload["search"])
    return int(payload["next_step"]), decode_history(search.space, payload["history"])


def supernet_state(supernet: Any) -> dict:
    """Weight snapshot of a supernet, through its ``state_dict``
    (every :class:`repro.nn.Module`, plus
    :class:`repro.core.SurrogateSuperNetwork`)."""
    state_dict = getattr(supernet, "state_dict", None)
    if not callable(state_dict):
        raise CheckpointError(
            f"{type(supernet).__name__} has no state_dict(); a supernet is "
            "checkpointed through state_dict()/load_state_dict()"
        )
    return {"kind": "state_dict", "state": dict(state_dict())}


def restore_supernet_state(supernet: Any, state: Mapping[str, Any]) -> None:
    """Inverse of :func:`supernet_state`."""
    if state["kind"] != "state_dict":
        raise CheckpointError(f"unknown supernet state kind {state['kind']!r}")
    supernet.load_state_dict(state["state"])
