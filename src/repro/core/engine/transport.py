"""Socket message transport for the distributed execution backend.

The controller and its workers exchange pickled message dicts over TCP,
framed by the same 8-byte length prefix the service protocol exposes
(:func:`repro.service.protocol.read_frame` / ``write_frame``) — one
framing layer, two consumers.  NDJSON stays the right shape for the
human-debuggable service verbs; stage traffic carries numpy batch
arrays, weight bytes and gradients, so it rides binary frames instead.

Every message is a dict with a ``"type"`` key; the set of types and
their fields is defined where they are produced and consumed
(:mod:`repro.core.engine.distributed`).  This module only knows how to
move one message: pickle, frame, unframe, unpickle.

Trust model: the transport carries *pickles*, so a connection is as
privileged as the process that accepted it.  Bind to loopback (the
default) or an interface the cluster's network policy already treats as
trusted, exactly like the multiprocessing ``Listener`` transports this
replaces.
"""

from __future__ import annotations

import pickle
import socket
from typing import Any, Dict, Optional, Tuple

from ...service.protocol import ProtocolError, read_frame, write_frame

#: Stamped into the worker's hello message; a controller refuses a
#: worker speaking another version instead of failing mid-shard.
TRANSPORT_VERSION = 2

#: Largest frame either side will accept — weight broadcasts for big
#: supernets dominate, and 1 GiB is far above any real payload while
#: still catching a corrupt or hostile length prefix.
MAX_FRAME_BYTES = 1 << 30

#: Where a cluster listens when nothing is specified: loopback, ephemeral
#: port.  Cross-host deployments bind an explicit ``host:port``.
DEFAULT_BIND = "127.0.0.1:0"


def parse_address(spec: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``, with typed errors.

    The port may be 0 (ephemeral, controller-side bind only).
    """
    text = str(spec).strip()
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"address {spec!r} is not 'host:port' (e.g. '127.0.0.1:7077')"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"address {spec!r} has a non-integer port {port_text!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"address {spec!r} port is out of range")
    return host, port


def format_address(address: Tuple[str, int]) -> str:
    host, port = address
    return f"{host}:{port}"


def send_message(sock: socket.socket, message: Dict[str, Any]) -> int:
    """Pickle and frame one message; returns the payload byte count."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    write_frame(sock, payload)
    return len(payload)


def recv_message(
    sock: socket.socket, max_bytes: int = MAX_FRAME_BYTES
) -> Optional[Dict[str, Any]]:
    """Read one message; ``None`` on clean EOF at a frame boundary.

    Truncated or oversized frames, and frames that do not unpickle to a
    ``{"type": ...}`` dict, raise :class:`ProtocolError` — the caller
    treats the connection as lost, never as "empty result".
    """
    payload = read_frame(sock, max_bytes=max_bytes)
    if payload is None:
        return None
    try:
        message = pickle.loads(payload)
    except Exception as error:
        raise ProtocolError(f"frame does not unpickle: {error}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(
            f"message must be a dict with a 'type' key, got {type(message).__name__}"
        )
    return message


__all__ = [
    "DEFAULT_BIND",
    "MAX_FRAME_BYTES",
    "TRANSPORT_VERSION",
    "format_address",
    "parse_address",
    "recv_message",
    "send_message",
]
