"""Crash-safe filesystem primitives for the fault-tolerant runtime.

Every artifact the reproduction persists — policy/perf-model snapshots
(:mod:`repro.core.serialize`), checkpoint shards, the checkpoint
manifest — goes through the same write protocol: write the full payload
to a temporary file in the destination directory, flush it to stable
storage, then :func:`os.replace` it over the final name.  POSIX renames
within one filesystem are atomic, so a reader (including a recovering
process) only ever observes the old content or the new content, never a
truncated mix — the failure mode a plain ``write_text`` leaves behind
when a worker is preempted mid-write.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any, Iterable, Union

PathLike = Union[str, pathlib.Path]


def atomic_write_bytes(path: PathLike, payload: bytes) -> pathlib.Path:
    """Atomically replace ``path`` with ``payload`` (temp file + rename)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: PathLike, text: str) -> pathlib.Path:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: PathLike, payload: Any, **dumps_kwargs: Any) -> pathlib.Path:
    """Atomically replace ``path`` with ``payload`` serialized as JSON."""
    return atomic_write_text(path, json.dumps(payload, **dumps_kwargs))


def write_hashed(path: PathLike, chunks: Iterable[Any]) -> str:
    """Write bytes-like ``chunks`` to a new file at ``path``, flush it
    to stable storage, and return the hex SHA-256 of what was written —
    hashed on the way out, so the file is never read back."""
    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)
            digest.update(chunk)
        handle.flush()
        os.fsync(handle.fileno())
    return digest.hexdigest()


def file_sha256(path: PathLike) -> str:
    """Hex SHA-256 digest of a file's content (verifying a checkpoint
    on load; writers hash as they write, see :func:`write_hashed`)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
