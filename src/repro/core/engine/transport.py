"""Socket message transport for the remote worker substrate.

Message dicts travel in the 8-byte length-prefixed frames of the
service protocol (:func:`repro.service.protocol.read_frame` /
``write_frame``).  A frame's payload is the checkpoint store's format
(:func:`repro.runtime.checkpoint.encode_state`) end to end:
``[u32 header length][JSON header][raw buffers]``, the header being the
document ``state.json`` holds and the buffers the per-dtype chunks of
``arrays.bin`` without their ``.npy`` headers.  The schema is here too:
:data:`TO_WORKER` and :data:`TO_CONTROLLER`, every type each end may
read with its fields' exact types; :func:`recv_message` refuses the rest.

Trust model: nothing a peer sends is executed.  A frame decodes to JSON
values and arrays of kinds ``b i u f`` whose bytes are accounted for
exactly, or it is a :class:`ProtocolError` and the link is dropped.
Peers are not authenticated, though: bind to loopback (the default) or
a network you control.
"""

from __future__ import annotations

import json
import socket
import struct
import urllib.parse
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ...runtime.checkpoint import decode_state, encode_state
from ...service.protocol import ProtocolError, read_frame, write_frame

#: Stamped into the worker's hello message; a controller refuses a
#: worker speaking another version instead of failing mid-shard.
TRANSPORT_VERSION = 3

#: Largest frame either side will accept — weight broadcasts for big
#: supernets dominate, and 1 GiB is far above any real payload while
#: still catching a corrupt or hostile length prefix.
MAX_FRAME_BYTES = 1 << 30

#: Where a cluster listens when nothing is specified: loopback, ephemeral
#: port.  Cross-host deployments bind an explicit ``host:port``.
DEFAULT_BIND = "127.0.0.1:0"

_HEADER_LENGTH = struct.Struct(">I")

#: Message type -> field -> the exact type, or types, the field must have.
Schema = Dict[str, Dict[str, Any]]

#: What a controller sends a worker.  A field not listed is not read; a
#: field that may be ``None`` may be absent.
TO_WORKER: Schema = {
    "context": {"context_id": str, "spec": dict, "layout": list, "version": int,
                "segment": (str, type(None)), "gradients": (list, type(None)),
                "weights": (np.ndarray, type(None))},
    "weights": {"context_id": str, "version": int, "data": np.ndarray},
    "release": {"context_id": str},
    "task": {"task_id": int, "stage": str, "kind": str, "context_id": str, "version": int,
             "payload": list},
    "shutdown": {},
}  # fmt: skip

#: What a worker sends its controller: its ``hello``, then one
#: ``result`` or ``error`` per task.
TO_CONTROLLER: Schema = {
    "hello": {"transport": int, "worker_id": str},
    "result": {"task_id": int, "value": list, "seconds": float},
    "error": {"task_id": int, "error": list},
}


def parse_address(spec: str) -> Tuple[str, int]:
    """``"host:port"`` or ``"[v6 host]:port"`` -> ``(host, port)``, with
    typed errors.  The port may be 0 (ephemeral, controller-side bind only).
    """
    try:
        parts = urllib.parse.urlsplit(f"//{str(spec).strip()}")
        host, port = parts.hostname, parts.port
    except ValueError as error:  # a port that is no integer in 0..65535
        raise ValueError(f"address {spec!r}: {error}") from None
    if not host or port is None:
        raise ValueError(f"address {spec!r} is not 'host:port' (e.g. '127.0.0.1:7077')")
    return host, port


def format_address(address: Tuple[str, int]) -> str:
    host, port = address
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


def encode_message(message: Dict[str, Any]) -> bytes:
    """One message as a frame payload (the header space-padded so the
    buffers start 8-byte aligned)."""
    document, buffers = encode_state(message)
    header = json.dumps(document, separators=(",", ":")).encode("utf-8")
    header += b" " * (-(_HEADER_LENGTH.size + len(header)) % 8)
    chunks = [chunk for buffer in buffers for chunk in buffer]
    return b"".join([_HEADER_LENGTH.pack(len(header)), header, *chunks])


def decode_message(payload: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_message`; every malformed payload raises
    :class:`ProtocolError`."""
    try:
        (length,) = _HEADER_LENGTH.unpack_from(payload)
        position = _HEADER_LENGTH.size + length
        document = json.loads(payload[_HEADER_LENGTH.size : position])

        def read_buffer(dtype: np.dtype, count: int) -> np.ndarray:
            nonlocal position
            flat = np.frombuffer(payload, dtype, count, position)
            position += flat.nbytes
            return flat

        message = decode_state(document, read_buffer)
        if position != len(payload):  # a header overrunning the frame, or trailing bytes
            raise ValueError(f"header and buffers end at byte {position} of {len(payload)}")
        if not isinstance(message, dict) or "type" not in message:
            raise ValueError(f"not a dict with a 'type' key: {type(message).__name__}")
    except Exception as error:
        raise ProtocolError(f"malformed frame: {type(error).__name__}: {error}") from None
    return message


def send_message(sock: socket.socket, message: Dict[str, Any]) -> int:
    """Encode and frame one message; returns the payload byte count."""
    payload = encode_message(message)
    write_frame(sock, payload)
    return len(payload)


def recv_message(sock: socket.socket, types: Schema) -> Optional[Dict[str, Any]]:
    """Read one message of a type in ``types`` (:data:`TO_WORKER` or
    :data:`TO_CONTROLLER`); ``None`` on clean EOF at a frame boundary.
    Truncated, oversized or malformed frames, other types and ill-typed
    fields raise :class:`ProtocolError`: the caller treats the
    connection as lost, never as "empty result"."""
    payload = read_frame(sock, max_bytes=MAX_FRAME_BYTES)
    if payload is None:
        return None
    message = decode_message(payload)
    kind = message["type"]
    if type(kind) is not str or kind not in types:
        raise ProtocolError(f"a {kind!r:.60} frame where only {sorted(types)} may arrive")
    for name, allowed in types[kind].items():
        value = message.get(name)
        if type(value) not in (allowed if isinstance(allowed, tuple) else (allowed,)):
            raise ProtocolError(f"a {kind!r} frame with {name} {value!r:.60}")
    return message


def serve(sock: socket.socket, types: Schema, handle: Callable[[Dict[str, Any]], None]) -> None:
    """The one loop of a worker link, at either end: pass each message
    read with :func:`recv_message` to ``handle`` until EOF or a
    ``shutdown``.  A refused frame raises out of it."""
    while True:
        message = recv_message(sock, types)
        if message is None or message["type"] == "shutdown":
            return
        handle(message)


__all__ = [
    "DEFAULT_BIND",
    "MAX_FRAME_BYTES",
    "TO_CONTROLLER",
    "TO_WORKER",
    "TRANSPORT_VERSION",
    "decode_message",
    "encode_message",
    "format_address",
    "parse_address",
    "recv_message",
    "send_message",
    "serve",
]
