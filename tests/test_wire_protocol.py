"""Wire-protocol edge cases: framing is where services rot first.

The service speaks two framings — newline-delimited JSON for the verb
protocol and 8-byte length-prefixed binary frames for the distributed
engine transport — both built on the shared helpers in
:mod:`repro.service.protocol`.  These tests pin the failure modes the
old per-module ``_read_line`` copies got wrong:

* a slow writer splitting one request across many tiny ``send``\\ s;
* trailing bytes arriving in the same segment as the newline;
* EOF mid-line (peer died) raising ``ProtocolError("truncated frame")``
  on *both* sides rather than handing a partial buffer to ``json``;
* an oversized request drawing a typed ``protocol_error`` reply
  instead of killing the daemon's connection handler mid-read.
"""

import json
import socket
import threading
import time

import pytest

from repro.service import DaemonConfig, SchedulerConfig, ServiceClient, ServiceDaemon
from repro.service.daemon import MAX_REQUEST_BYTES
from repro.service.protocol import (
    FRAME_HEADER,
    ProtocolError,
    read_frame,
    read_line,
    recv_exact,
    write_frame,
)


def _pair():
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    return left, right


class TestReadLine:
    def test_slow_writer_many_small_sends(self):
        reader, writer = _pair()
        payload = b'{"verb": "ping", "padding": "' + b"x" * 300 + b'"}'

        def drip():
            for i in range(0, len(payload), 7):
                writer.sendall(payload[i : i + 7])
                time.sleep(0.002)
            writer.sendall(b"\n")

        thread = threading.Thread(target=drip)
        thread.start()
        try:
            assert read_line(reader) == payload
        finally:
            thread.join()
            reader.close()
            writer.close()

    def test_trailing_bytes_after_newline_ignored(self):
        reader, writer = _pair()
        writer.sendall(b"first line\nsecond line that must not leak")
        try:
            assert read_line(reader) == b"first line"
        finally:
            reader.close()
            writer.close()

    def test_clean_eof_returns_empty(self):
        reader, writer = _pair()
        writer.close()
        try:
            assert read_line(reader) == b""
        finally:
            reader.close()

    def test_eof_mid_line_is_truncated_frame(self):
        reader, writer = _pair()
        writer.sendall(b'{"verb": "subm')  # peer dies mid-request
        writer.close()
        try:
            with pytest.raises(ProtocolError, match="truncated frame"):
                read_line(reader)
        finally:
            reader.close()

    def test_over_limit_line_raises(self):
        reader, writer = _pair()
        writer.sendall(b"y" * 4096)
        try:
            with pytest.raises(ProtocolError, match="exceeds"):
                read_line(reader, max_bytes=1024)
        finally:
            reader.close()
            writer.close()

    def test_newline_within_limit_wins_over_size_check(self):
        # The newline can arrive in the same chunk that crosses
        # max_bytes; a terminated line is a complete line, not oversize.
        reader, writer = _pair()
        line = b"z" * 1000
        writer.sendall(line + b"\n")
        try:
            assert read_line(reader, max_bytes=1000) == line
        finally:
            reader.close()
            writer.close()


class TestBinaryFrames:
    def test_round_trip(self):
        reader, writer = _pair()
        try:
            write_frame(writer, b"hello frames")
            write_frame(writer, b"")  # zero-length frames are legal
            write_frame(writer, b"\x00" * 70000)  # multi-recv payload
            assert read_frame(reader) == b"hello frames"
            assert read_frame(reader) == b""
            assert read_frame(reader) == b"\x00" * 70000
        finally:
            reader.close()
            writer.close()

    def test_clean_eof_between_frames_is_none(self):
        reader, writer = _pair()
        write_frame(writer, b"last")
        writer.close()
        try:
            assert read_frame(reader) == b"last"
            assert read_frame(reader) is None
        finally:
            reader.close()

    def test_eof_inside_header_is_truncated(self):
        reader, writer = _pair()
        writer.sendall(FRAME_HEADER.pack(100)[:3])  # 3 of 8 header bytes
        writer.close()
        try:
            with pytest.raises(ProtocolError, match="truncated frame"):
                read_frame(reader)
        finally:
            reader.close()

    def test_eof_inside_payload_is_truncated(self):
        reader, writer = _pair()
        writer.sendall(FRAME_HEADER.pack(100) + b"only twenty bytes...")
        writer.close()
        try:
            with pytest.raises(ProtocolError, match="truncated frame"):
                read_frame(reader)
        finally:
            reader.close()

    def test_oversize_frame_rejected_before_payload(self):
        reader, writer = _pair()
        writer.sendall(FRAME_HEADER.pack(1 << 40))  # 1 TiB claim, no body
        try:
            with pytest.raises(ProtocolError, match="exceeds"):
                read_frame(reader, max_bytes=1 << 20)
        finally:
            reader.close()
            writer.close()

    def test_recv_exact_none_only_at_byte_zero(self):
        reader, writer = _pair()
        writer.close()
        try:
            assert recv_exact(reader, 8) is None
        finally:
            reader.close()
        reader, writer = _pair()
        writer.sendall(b"abc")
        writer.close()
        try:
            with pytest.raises(ProtocolError, match="5 of 8"):
                recv_exact(reader, 8)
        finally:
            reader.close()


@pytest.fixture()
def daemon(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)  # a remote one is refused
    config = DaemonConfig(
        spool=tmp_path / "spool",
        scheduler=SchedulerConfig(max_concurrent=1, poll_interval_s=0.005),
        accept_timeout_s=0.05,
    )
    instance = ServiceDaemon(config)
    thread = threading.Thread(target=instance.serve, daemon=True)
    thread.start()
    client = ServiceClient(instance.socket_path, timeout=30.0)
    client.wait_ready(timeout=10.0)
    yield instance, client
    instance.request_drain()
    thread.join(timeout=30.0)
    assert not thread.is_alive()


def _raw_connect(instance):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(str(instance.socket_path))
    return sock


class TestDaemonFraming:
    """The same edges end-to-end, against a live daemon."""

    def test_slow_writer_gets_normal_reply(self, daemon):
        instance, _ = daemon
        sock = _raw_connect(instance)
        request = json.dumps({"v": 1, "verb": "ping", "args": {}}).encode() + b"\n"
        try:
            for i in range(0, len(request), 5):
                sock.sendall(request[i : i + 5])
                time.sleep(0.002)
            reply = json.loads(read_line(sock))
        finally:
            sock.close()
        assert reply["ok"] is True
        assert reply["data"]["queued"] == 0

    def test_trailing_bytes_after_request_ignored(self, daemon):
        instance, _ = daemon
        sock = _raw_connect(instance)
        request = json.dumps({"v": 1, "verb": "ping", "args": {}}).encode()
        try:
            sock.sendall(request + b"\n" + b"garbage after the newline")
            reply = json.loads(read_line(sock))
        finally:
            sock.close()
        assert reply["ok"] is True

    def test_client_death_mid_request_gets_typed_error(self, daemon):
        # Half-close after a partial line: daemon-side read_line raises
        # the truncated-frame ProtocolError *inside* the typed-error
        # envelope, so the daemon survives and we still get a reply.
        instance, client = daemon
        sock = _raw_connect(instance)
        try:
            sock.sendall(b'{"v": 1, "verb": "pi')
            sock.shutdown(socket.SHUT_WR)
            reply = json.loads(read_line(sock))
        finally:
            sock.close()
        assert reply["ok"] is False
        assert reply["error"]["code"] == "protocol_error"
        assert "truncated frame" in reply["error"]["message"]
        assert client.ping()["pid"]  # daemon still serving

    def test_oversized_request_gets_typed_error(self, daemon):
        # Regression: the read used to happen before the ServiceError
        # try block, so an oversized request killed the handler with no
        # reply.  Now it must come back as a typed protocol_error.
        instance, client = daemon
        big = json.dumps(
            {"v": 1, "verb": "submit",
             "args": {"tenant": "a", "spec": {"pad": "x" * (2 * MAX_REQUEST_BYTES)}}}
        ).encode() + b"\n"
        sock = _raw_connect(instance)
        try:
            try:
                sock.sendall(big)
            except BrokenPipeError:
                # The daemon rejected at the limit and hung up while we
                # were still sending; the typed reply is already queued.
                pass
            reply = json.loads(read_line(sock))
        finally:
            sock.close()
        assert reply["ok"] is False
        assert reply["error"]["code"] == "protocol_error"
        assert str(MAX_REQUEST_BYTES) in reply["error"]["message"]
        assert client.ping()["pid"]  # handler death would strand the socket

    def test_client_raises_truncated_on_daemon_death_mid_reply(self, tmp_path):
        # A fake daemon that replies with half a line then hangs up:
        # the client must classify it as a truncated frame, not attempt
        # to JSON-decode the fragment.
        path = tmp_path / "fake.sock"
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(str(path))
        server.listen(1)

        def half_reply():
            conn, _ = server.accept()
            read_line(conn)  # consume the request
            conn.sendall(b'{"v": 1, "ok": tr')  # die mid-reply
            conn.close()

        thread = threading.Thread(target=half_reply)
        thread.start()
        try:
            with pytest.raises(ProtocolError, match="truncated frame"):
                ServiceClient(path, timeout=10.0).ping()
        finally:
            thread.join()
            server.close()

    def test_client_raises_on_empty_reply(self, tmp_path):
        path = tmp_path / "mute.sock"
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(str(path))
        server.listen(1)

        def mute():
            conn, _ = server.accept()
            read_line(conn)
            conn.close()  # clean close, zero reply bytes

        thread = threading.Thread(target=mute)
        thread.start()
        try:
            with pytest.raises(ProtocolError, match="without replying"):
                ServiceClient(path, timeout=10.0).ping()
        finally:
            thread.join()
            server.close()
