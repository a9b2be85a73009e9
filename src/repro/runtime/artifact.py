"""Versioned elastic-supernet artifacts (the train-once half of OFA).

An artifact is the durable product of one :class:`~repro.core.elastic.
ElasticTraining` run: the trained elastic weights plus everything a
later :class:`~repro.core.elastic.SpecializationSearch` needs to trust
them — the search-space identity, the progressive-shrinking schedule the
weights were trained under, and content checksums.  Layout::

    <dir>/
      ARTIFACT.json                 # manifest; written atomically, last
      weights/                      # a CheckpointStore (keep_last=1)
        MANIFEST.json
        snap-000000-step-XXXXXX/
          state.json
          arrays.bin                # the weight arrays (SHA-256 pinned)

The weight payload rides the existing :class:`~repro.runtime.checkpoint.
CheckpointStore` machinery, inheriting its staging + ``os.replace`` +
manifest-last atomicity and per-file SHA-256 verification; the artifact
manifest is only written once the weights are durably in place, so a
crash mid-save can never present a half-written artifact as valid.
Loading into a mismatched search space is an error, not a warning —
specializing against weights trained for different decisions would be
silently wrong.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..searchspace.base import SearchSpace
from .atomic import atomic_write_json
from .checkpoint import (
    CheckpointError,
    CheckpointStore,
    restore_supernet_state,
    supernet_state,
)

PathLike = Union[str, pathlib.Path]

#: Version of the on-disk artifact layout.  2: the weights are float32
#: (1 held float64 ones); other formats are refused.
ARTIFACT_FORMAT = 2
ARTIFACT_KIND = "elastic_supernet"
ARTIFACT_NAME = "ARTIFACT.json"
WEIGHTS_DIR = "weights"

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_KIND",
    "ARTIFACT_NAME",
    "ElasticArtifact",
    "load_elastic_artifact",
    "restore_elastic_supernet",
    "save_elastic_artifact",
]


@dataclass(frozen=True)
class ElasticArtifact:
    """Manifest view of one saved elastic-supernet artifact."""

    directory: pathlib.Path
    space_name: str
    decision_names: Tuple[str, ...]
    schedule: Dict[str, Any]
    trained_steps: int
    seed: int
    #: SHA-256 of the weight arrays file — the artifact's content
    #: identity; bit-identical trainings produce equal digests.
    weights_sha: str
    snapshot_id: str
    created_at: float
    metadata: Dict[str, Any] = field(default_factory=dict)


def _weights_store(directory: pathlib.Path) -> CheckpointStore:
    return CheckpointStore(directory / WEIGHTS_DIR, keep_last=1)


def save_elastic_artifact(
    directory: PathLike,
    supernet: Any,
    space: SearchSpace,
    schedule: Any,
    *,
    trained_steps: int,
    seed: int,
    metadata: Optional[Mapping[str, Any]] = None,
) -> ElasticArtifact:
    """Persist trained elastic weights as a versioned artifact.

    Saving into an existing artifact directory replaces it (the weight
    store retires the old snapshot; the manifest is rewritten
    atomically) — re-training to more steps is an in-place upgrade.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    store = _weights_store(directory)
    info = store.save(
        int(trained_steps),
        {
            "format": ARTIFACT_FORMAT,
            "kind": ARTIFACT_KIND,
            "weights": supernet_state(supernet),
        },
    )
    manifest = {
        "format": ARTIFACT_FORMAT,
        "kind": ARTIFACT_KIND,
        "space": {
            "name": space.name,
            "decisions": [d.name for d in space.decisions],
        },
        "schedule": schedule.describe(),
        "trained_steps": int(trained_steps),
        "seed": int(seed),
        "weights_sha": info.files[CheckpointStore.ARRAYS_NAME],
        "snapshot_id": info.snapshot_id,
        "created_at": time.time(),
        "metadata": dict(metadata or {}),
    }
    atomic_write_json(directory / ARTIFACT_NAME, manifest, indent=2, sort_keys=True)
    return _artifact_from_manifest(directory, manifest)


def _artifact_from_manifest(
    directory: pathlib.Path, manifest: Mapping[str, Any]
) -> ElasticArtifact:
    return ElasticArtifact(
        directory=directory,
        space_name=str(manifest["space"]["name"]),
        decision_names=tuple(str(n) for n in manifest["space"]["decisions"]),
        schedule=dict(manifest["schedule"]),
        trained_steps=int(manifest["trained_steps"]),
        seed=int(manifest["seed"]),
        weights_sha=str(manifest["weights_sha"]),
        snapshot_id=str(manifest["snapshot_id"]),
        created_at=float(manifest["created_at"]),
        metadata=dict(manifest.get("metadata", {})),
    )


def load_elastic_artifact(directory: PathLike) -> ElasticArtifact:
    """Read and validate an artifact manifest (weights stay on disk)."""
    directory = pathlib.Path(directory)
    path = directory / ARTIFACT_NAME
    if not path.exists():
        raise CheckpointError(f"no elastic artifact at {directory} ({ARTIFACT_NAME} missing)")
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise CheckpointError(f"unreadable artifact manifest {path}: {error}") from error
    if manifest.get("format") != ARTIFACT_FORMAT:
        raise CheckpointError(
            f"unsupported artifact format {manifest.get('format')!r} "
            f"(expected {ARTIFACT_FORMAT})"
        )
    if manifest.get("kind") != ARTIFACT_KIND:
        raise CheckpointError(
            f"not an elastic-supernet artifact (kind={manifest.get('kind')!r})"
        )
    return _artifact_from_manifest(directory, manifest)


def restore_elastic_supernet(
    directory: PathLike,
    supernet: Any,
    space: Optional[SearchSpace] = None,
) -> ElasticArtifact:
    """Load an artifact's trained weights into ``supernet``.

    When ``space`` is given, its identity (name + ordered decision
    names) must match the space the artifact was trained for; the
    weight payload is checksum-verified by the underlying store before
    any state is touched.
    """
    directory = pathlib.Path(directory)
    artifact = load_elastic_artifact(directory)
    if space is not None:
        names = tuple(d.name for d in space.decisions)
        if space.name != artifact.space_name or names != artifact.decision_names:
            raise CheckpointError(
                f"artifact {directory} was trained for space "
                f"{artifact.space_name!r} ({len(artifact.decision_names)} "
                f"decisions); cannot specialize space {space.name!r} "
                f"({len(names)} decisions)"
            )
    store = _weights_store(directory)
    info = store.latest()
    if info is None or info.snapshot_id != artifact.snapshot_id:
        raise CheckpointError(
            f"artifact {directory}: weight snapshot "
            f"{artifact.snapshot_id!r} is not the store's latest "
            f"({info.snapshot_id if info else None!r})"
        )
    payload = store.load(info)
    if payload.get("format") != ARTIFACT_FORMAT or payload.get("kind") != ARTIFACT_KIND:
        raise CheckpointError(
            f"artifact {directory}: unexpected weight payload "
            f"(format={payload.get('format')!r}, kind={payload.get('kind')!r})"
        )
    restore_supernet_state(supernet, payload["weights"])
    return artifact
