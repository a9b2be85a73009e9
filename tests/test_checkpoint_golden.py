"""Snapshot bytes, pinned: the writer may get faster, the files may not move.

``golden/checkpoint_snapshot.json`` holds ``state.json``, ``arrays.bin``
and the two manifest digests exactly as the last commit whose
``CheckpointStore.save`` went through ``json.dump`` + ``np.concatenate``
+ ``np.lib.format.write_array`` + ``file_sha256`` wrote them for
:func:`golden_state` (numpy >= 1.14 pads every ``.npy`` header alike, so
the bytes do not depend on the numpy installed).  ``reference_save``
keeps that writer as the oracle for states too big to record: a real
search payload must come out byte-identical through both.  A deliberate
format change bumps ``CHECKPOINT_FORMAT`` and regenerates the file with
``current()``.
"""

import base64
import json
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import (
    CheckpointCorruptError,
    CheckpointStore,
    file_sha256,
    pack_state,
    search_checkpoint_payload,
)

from .test_runtime_checkpoint import build_search

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "checkpoint_snapshot.json").read_text()
)
FILES = (CheckpointStore.STATE_NAME, CheckpointStore.ARRAYS_NAME)


def golden_state():
    """Every leaf kind ``pack_state`` admits, with no platform-dependent
    value: awkward floats, non-ASCII text, 0-d / empty / strided arrays,
    several dtypes (one of them with a single array)."""
    return {
        "format": 2,
        "text": 'héllo ☃ "quoted" \\ /',
        "flags": [True, False, None],
        "ints": [0, -1, 2**53, 10**20],
        "floats": [
            0.1, 1 / 3, 1e-320, 1e22, 1e16, -0.0, 5e-324,
            1.7976931348623157e308, float("inf"), float("-inf"), float("nan"),
        ],
        "scalars": {"i": np.int64(7), "f": np.float64(0.1) * 3, "b": np.bool_(True)},
        "weights": np.arange(30, dtype=np.float64).reshape(5, 6) / 7.0,
        "transposed": np.arange(12, dtype=np.float64).reshape(3, 4).T,
        "strided": np.arange(20, dtype=np.int64)[::3],
        "scalar_array": np.array(2.5),
        "empty": np.zeros((0, 4)),
        "half": np.arange(5, dtype=np.float32) / 3,
        "mask": np.array([True, False, True]),
        "single": np.arange(3, dtype=np.uint8),
        "nested": [{"deep": np.arange(4, dtype=np.int64)}, (1, 2.5, "x")],
    }


def snapshot_files(store, info):
    directory = store.snapshot_dir(info)
    return {name: (directory / name).read_bytes() for name in FILES}


def current(tmp_path):
    store = CheckpointStore(tmp_path)
    info = store.save(7, golden_state())
    files = snapshot_files(store, info)
    return {
        "state_json": files[CheckpointStore.STATE_NAME].decode("utf-8"),
        "arrays_bin_base64": base64.b64encode(files[CheckpointStore.ARRAYS_NAME]).decode(),
        "manifest_files": dict(info.files),
    }


def reference_save(directory, state):
    """The recorded commit's writer, file for file (see module docstring)."""
    tree, arrays = pack_state(state)
    names, chunks, index = [], {}, []
    for array in arrays:
        name = array.dtype.str
        if name not in chunks:
            names.append(name)
            chunks[name] = []
        index.append(
            {
                "buffer": names.index(name),
                "offset": sum(chunk.size for chunk in chunks[name]),
                "shape": list(array.shape),
            }
        )
        chunks[name].append(np.ascontiguousarray(array).ravel())
    with open(directory / FILES[0], "w", encoding="utf-8") as handle:
        json.dump(
            {"tree": tree, "buffers": names, "arrays": index},
            handle,
            separators=(",", ":"),
        )
    with open(directory / FILES[1], "wb") as handle:
        for name in names:
            merged = chunks[name][0] if len(chunks[name]) == 1 else np.concatenate(chunks[name])
            np.lib.format.write_array(handle, merged, allow_pickle=False)
    return {name: file_sha256(directory / name) for name in FILES}


def test_snapshot_bytes_equal_the_recorded_ones(tmp_path):
    assert current(tmp_path) == GOLDEN


def test_real_search_payload_is_byte_identical_to_the_reference_writer(tmp_path):
    search = build_search(seed=3, steps=4)
    history = [search.step(0), search.step(1)]
    payload = search_checkpoint_payload(search, 2, history)
    store = CheckpointStore(tmp_path / "store")
    info = store.save(2, payload)
    (tmp_path / "reference").mkdir()
    digests = reference_save(tmp_path / "reference", payload)
    assert dict(info.files) == digests
    assert snapshot_files(store, info) == {
        name: (tmp_path / "reference" / name).read_bytes() for name in FILES
    }
    # 200-odd arrays went in; the verifying load path reads them back.
    assert len(pack_state(payload)[1]) > 100
    restored = store.load(info)
    np.testing.assert_array_equal(
        pack_state(restored)[1][-1], pack_state(payload)[1][-1]
    )


def test_object_arrays_are_still_refused(tmp_path):
    with pytest.raises(ValueError, match="[Oo]bject arrays"):
        CheckpointStore(tmp_path).save(1, {"bad": np.array([{}, None], dtype=object)})
    assert CheckpointStore(tmp_path).snapshots() == []


@pytest.mark.parametrize("name", FILES)
def test_flipped_byte_is_rejected_on_load(tmp_path, name):
    store = CheckpointStore(tmp_path)
    info = store.save(7, golden_state())
    path = store.snapshot_dir(info) / name
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointCorruptError, match=f"checksum mismatch on {name}"):
        store.load(info)
