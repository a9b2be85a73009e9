"""What crosses a worker link: the wire protocol, its handshake, and
the one supernet spec form (a name in ``SUPERNETS`` plus its config) a
worker rebuilds from.

A link is primed with every registered context before it can be
assigned work, so after ``hello`` a worker only answers; a peer that
does not open with this build's ``hello`` is refused before it is
linked; a frame that does not decode is refused without running
anything; and a supernet that cannot be rebuilt and scored remotely
registers nothing.
"""

import ast
import collections
import dataclasses
import itertools
import json
import os
import pathlib
import pickle
import signal
import socket
import struct
import sys
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExecutionBackend, SearchEngine, SurrogateSuperNetwork, shutdown_pools
from repro.core.engine import DIST_BIND_ENV_VAR, StageTask, run_stage_task
from repro.core.engine import transport as transport_mod
from repro.core.engine import worker as worker_mod
from repro.core.engine.distributed import WorkerHost
from repro.core.engine.shm import SharedWeights
from repro.core.engine.transport import (
    TO_CONTROLLER,
    TO_WORKER,
    TRANSPORT_VERSION,
    decode_message,
    encode_message,
    parse_address,
    recv_message,
    send_message,
)
from repro.core.engine.worker import SUPERNETS, execute_stage_kind
from repro.nn import Tensor
from repro.runtime import CheckpointError
from repro.runtime.errors import is_retryable
from repro.service.protocol import ProtocolError
from repro.supernet import (
    DlrmSuperNetwork,
    DlrmSupernetConfig,
    MixtureSuperNetwork,
    MixtureSupernetConfig,
    TransformerSuperNetwork,
    TransformerSupernetConfig,
    VisionSuperNetwork,
    VisionSupernetConfig,
)

from .test_backends import (  # noqa: F401 (dialled_in_only is a fixture)
    ItemConfig,
    ItemSupernet,
    _surrogate_quality,
    dialled_in_only,
    stage_map,
)
from .test_batched_exec import PerCoreOnly
from .test_sweep import NUM_TABLES, REMOTE, build_single, build_space, build_tunas, outcome_of


class TestStageTasks:
    def test_unknown_task_kind_rejected(self):
        # "quality" was a kind once; it is quality_many on a group of one.
        # So was "train_many": a training group's backward now always
        # runs in the engine's process.  Workers only score forward.
        assert worker_mod.TASK_KINDS == ("quality_many",)
        search = build_single(backend="serial")
        for kind in ("mystery", "quality", "train_many"):
            with pytest.raises(ValueError):
                execute_stage_kind(search.supernet, kind, ())


class TestWorkerWireProtocol:
    """A link is primed before it is assignable, so a worker never asks:
    after ``hello`` it sends one ``result`` or ``error`` per task."""

    TYPES = {"hello", "context", "weights", "release", "task",
             "result", "error", "shutdown"}  # fmt: skip

    def _shard_payloads(self, search, count):
        drawn = search.sample_shard(count, warming_up=True)
        batches = [search.pipeline.next_batch() for _ in drawn]
        groups = [[i] for i in range(count)]
        return worker_mod.quality_many_payloads(drawn, batches, groups)

    def test_a_task_ahead_of_its_context_or_version_is_a_task_error(self):
        # Positive controls, against a scripted controller: what the
        # priming order rules out is still *detected* by the worker, and
        # comes back as the task's error — no question, no wait.
        from repro.core.engine.distributed import WorkerHost, _snapshot_weights
        from repro.core.engine.shm import weight_layout

        search = build_single(backend="serial")
        payload = self._shard_payloads(search, 1)[0]
        arrays = [p.data for p in search.supernet.parameters()]
        worker_side, controller = socket.socketpair()
        controller.settimeout(30.0)
        host = WorkerHost(worker_side, worker_id="scripted")
        thread = threading.Thread(target=host.run, daemon=True)
        thread.start()

        def ask(context_id, version):
            send_message(
                controller,
                {"type": "task", "task_id": version, "stage": "score", "kind": "quality_many",
                 "context_id": context_id, "version": version, "payload": payload},
            )
            return recv_message(controller, TO_CONTROLLER)

        try:
            assert recv_message(controller, TO_CONTROLLER)["type"] == "hello"
            context = {
                "type": "context",
                "context_id": "sent",
                "spec": worker_mod.worker_spec_for(search.supernet),
                "layout": tuple(weight_layout(arrays)),
                "dtype": arrays[0].dtype.str,
                "version": 1,
                "weights": _snapshot_weights(arrays),
            }
            send_message(controller, context)
            unknown = ask("never-sent", 1)
            assert unknown["type"] == "error" and unknown["error"][0] == "RuntimeError"
            assert "never-sent" in unknown["error"][1]
            stale = ask("sent", 3)  # stamped past the version pushed
            assert stale["type"] == "error" and stale["task_id"] == 3
            assert "version 3" in str(stale["error"]) and "version 1" in str(stale["error"])
            served = ask("sent", 1)  # ...and the worker kept serving
            assert served["type"] == "result"
            assert served["value"] == execute_stage_kind(search.supernet, "quality_many", payload)
            send_message(controller, {"type": "shutdown"})
            assert recv_message(controller, TO_CONTROLLER) is None  # EOF: it sent nothing else
        finally:
            controller.close()
        thread.join(timeout=30.0)
        assert not thread.is_alive() and host.executed == 3

    @pytest.mark.parametrize("kind", ["quality", "train_many"])
    def test_a_task_of_a_retired_kind_is_a_task_error(self, kind):
        # Kinds an earlier build ran come back as the task's error, not
        # as a dead worker, and the same worker then serves a task of
        # the one kind it runs.
        from repro.core.engine.distributed import WorkerHost

        search = build_single(backend="serial")
        frames = _control_frames(search)
        worker_side, controller = socket.socketpair()
        controller.settimeout(30.0)
        host = WorkerHost(worker_side, worker_id="scripted")
        thread = threading.Thread(target=host.run, daemon=True)
        thread.start()
        try:
            assert recv_message(controller, TO_CONTROLLER)["type"] == "hello"
            send_message(controller, frames["context"])
            send_message(controller, frames["weights"])
            send_message(controller, {**frames["task"], "task_id": 7, "kind": kind})
            retired = recv_message(controller, TO_CONTROLLER)
            assert retired["type"] == "error" and retired["task_id"] == 7
            assert retired["error"][0] == "ValueError" and repr(kind) in retired["error"][1]
            send_message(controller, frames["task"])
            served = recv_message(controller, TO_CONTROLLER)
            assert served["type"] == "result" and served["task_id"] == 1
            send_message(controller, {"type": "shutdown"})
            assert recv_message(controller, TO_CONTROLLER) is None
        finally:
            controller.close()
        thread.join(timeout=30.0)
        assert not thread.is_alive() and host.executed == 2

    @pytest.fixture
    def controller_frames(self, monkeypatch):
        """The types of every frame a controller's receive loop reads,
        with the interpreter switching threads at every gap there is."""
        received, real_recv = set(), transport_mod.recv_message

        def spying_recv(sock, types):
            message = real_recv(sock, types)
            if message and threading.current_thread().name.startswith("repro-dist-recv"):
                received.add(message["type"])
            return message

        monkeypatch.setattr(transport_mod, "recv_message", spying_recv)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield received
        finally:
            sys.setswitchinterval(switch_interval)
            shutdown_pools()

    def _mapper(self, search, count):
        """``map_once()``: publish the other of two weight states (a
        worker left on the first would score differently), map ``count``
        stage tasks for ``search``'s context, compare with the in-process
        pass; returns the workers that served."""
        context, turns = search._remote_ctx, itertools.count()
        payloads = self._shard_payloads(search, count)
        states = [[a.copy() for a in context.param_arrays]]
        states.append([a + 1e-3 for a in states[0]])
        expected = []

        def load(state):
            for array, value in zip(context.param_arrays, state):
                array[...] = value

        for state in states:
            load(state)
            expected.append(
                [execute_stage_kind(search.supernet, "quality_many", p) for p in payloads]
            )

        def map_once():
            turn = next(turns) % 2
            load(states[turn])
            context.publish()
            tasks = [
                StageTask(stage="score", kind="quality_many", context=context.ref(), payload=p)
                for p in payloads
            ]
            results = search.backend.map(run_stage_task, tasks)
            assert [value for value, _, _ in results] == expected[turn]
            return {worker for _, _, worker in results}

        return map_once

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
    def test_a_task_off_its_segment_version_is_a_task_error(self, monkeypatch):
        # A spawned worker's parameters are bound to the segment, so a
        # task runs only at the version it is stamped with, checked when
        # it starts and when it ends: a write in progress (odd) or a
        # version that moved on is the task's error naming both, never a
        # wait (the scripted controller's socket timeout bounds one) and
        # never a silent compute.
        from repro.core.engine.shm import weight_layout

        search = build_single(backend="serial")
        payload = self._shard_payloads(search, 1)[0]
        arrays = [p.data for p in search.supernet.parameters()]
        weights = SharedWeights.create(arrays)
        worker_side, controller = socket.socketpair()
        controller.settimeout(30.0)
        host = WorkerHost(worker_side, worker_id="scripted")
        thread = threading.Thread(target=host.run, daemon=True)
        thread.start()
        task_ids = itertools.count(1)

        def ask(version):
            send_message(
                controller,
                {"type": "task", "task_id": next(task_ids), "stage": "score",
                 "kind": "quality_many", "context_id": "sent", "version": version,
                 "payload": payload},
            )
            return recv_message(controller, TO_CONTROLLER)

        def refused(reply, stamped, found):
            return (
                reply["type"] == "error"
                and reply["error"][0] == "RuntimeError"
                and f"version {stamped}" in reply["error"][1]
                and f"found version {found}" in reply["error"][1]
            )

        try:
            assert recv_message(controller, TO_CONTROLLER)["type"] == "hello"
            send_message(controller, {
                "type": "context", "context_id": "sent",
                "spec": worker_mod.worker_spec_for(search.supernet),
                "layout": tuple(weight_layout(arrays)), "dtype": "<f4", "version": 2,
                "segment": weights.name,
            })  # fmt: skip
            served = ask(2)
            assert served["type"] == "result"
            assert served["value"] == execute_stage_kind(search.supernet, "quality_many", payload)
            hosted = host._contexts["sent"]
            for param, view in zip(hosted.params, hosted.shared.views):  # its own mapping
                assert param.data is view and np.shares_memory(param.data, view)
            weights.begin_write()
            assert refused(ask(2), 2, 3)  # a write in progress
            assert weights.publish() == 4
            assert refused(ask(2), 2, 4)  # moved on
            assert refused(ask(6), 6, 4)  # a stamp from ahead
            run = worker_mod.execute_stage_kind

            def moving(*args):
                weights.begin_write()  # the weights move under the task
                return run(*args)

            monkeypatch.setattr(worker_mod, "execute_stage_kind", moving)
            assert refused(ask(4), 4, 5)
            send_message(controller, {"type": "release", "context_id": "sent"})
            send_message(controller, {"type": "shutdown"})
            assert recv_message(controller, TO_CONTROLLER) is None
        finally:
            controller.close()
        thread.join(timeout=30.0)
        weights.release()
        assert not thread.is_alive() and host.executed == 5
        assert all(param.data.flags.owndata for param in hosted.params)  # unbound first

    def test_late_joiners_are_primed_before_they_are_assignable(
        self, controller_frames, dialled_in_only
    ):
        # Workers dial in one after another while this thread maps stage
        # tasks and publishes new weights between maps.  A joiner is
        # picked for tasks from the instant it is linked; every map must
        # still equal the in-process pass, and no worker may ever have
        # had to ask the controller for anything.
        from repro.core.engine.distributed import WorkerHost

        joins, live = 50, 3
        # Three searches share the cluster; the maps are for the context
        # registered — so sent to a joiner — last.
        searches = [build_single(backend="distributed", workers=3) for _ in range(3)]
        cluster, map_once = searches[-1]._remote_ctx.cluster, self._mapper(searches[-1], 8)
        losses = cluster.worker_losses
        hosts, threads, served = collections.deque(), [], set()
        for index in range(joins + 1):
            host = WorkerHost(cluster.address, worker_id=f"late-{index}")
            hosts.append(host)
            threads.append(threading.Thread(target=host.run, daemon=True))
            threads[-1].start()
            if index == 0:
                assert cluster.wait_for_workers(1, 60.0) == 1
            deadline = time.monotonic() + 60.0
            while host.worker_id not in served:  # admitted under these maps
                assert time.monotonic() < deadline
                served |= map_once()
            if len(hosts) > live:
                # The oldest, idle, hangs up: a publish stays cheap.
                hosts.popleft()._sock.shutdown(socket.SHUT_RDWR)
                while cluster.host_count > live and time.monotonic() < deadline:
                    time.sleep(0.001)
        assert cluster.host_count == live
        assert cluster.worker_losses - losses == joins + 1 - live  # the hang-ups, no other
        assert "result" in controller_frames and controller_frames <= {"result", "error"}
        shutdown_pools()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)

    def test_respawned_workers_are_primed_before_they_are_assignable(self, controller_frames):
        # The same on spawned links: two job threads on one shared
        # cluster, a worker SIGKILLed after each map of one of them, so
        # its every next placement respawns and admits a worker while the
        # other thread is mid-map.
        searches = [build_single(backend="processes", workers=2) for _ in range(2)]
        cluster = searches[0]._remote_ctx.cluster
        losses = cluster.worker_losses
        failures = []

        def job(search, kills):
            try:
                map_once = self._mapper(search, 4)
                for _ in range(25):
                    assert search._remote_active()  # tops the pool up, as every placement does
                    victim = min(map_once())
                    if kills:
                        with cluster._lock:
                            os.kill(cluster._links[victim].process.pid, signal.SIGKILL)
                        deadline = time.monotonic() + 60.0
                        while cluster.host_count == 2 and time.monotonic() < deadline:
                            time.sleep(0.001)
            except BaseException as error:
                failures.append(error)

        threads = [
            threading.Thread(target=job, args=(search, index == 0), daemon=True)
            for index, search in enumerate(searches)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        assert cluster.worker_losses - losses == 25
        assert "result" in controller_frames and controller_frames <= {"result", "error"}

    def test_the_protocol_has_exactly_these_message_types(self):
        """A ninth type fails here: what distributed.py sends, the two
        tables a link's ends read with, and DESIGN.md's message table
        are one set."""
        from repro.core.engine import distributed as distributed_mod

        assert set(TO_WORKER) | set(TO_CONTROLLER) == self.TYPES
        assert set(TO_CONTROLLER) == {"hello", "result", "error"}
        sent = set()
        for node in ast.walk(ast.parse(pathlib.Path(distributed_mod.__file__).read_text())):
            if isinstance(node, ast.Dict):
                sent.update(
                    value.value
                    for key, value in zip(node.keys, node.values)
                    if isinstance(key, ast.Constant) and key.value == "type"
                )
        assert sent == self.TYPES
        design = (pathlib.Path(__file__).parents[1] / "DESIGN.md").read_text()
        table = design.split("| message | direction | meaning |")[1].split("\n\n")[0]
        cells = [line.split("|")[1] for line in table.splitlines()[2:]]
        documented = [name.strip(" `") for cell in cells for name in cell.split("/")]
        assert sorted(documented) == sorted(self.TYPES)


#: A well-formed message of every type in the two tables, keyed by type.
EVERY_MESSAGE = {
    "context": {"type": "context", "context_id": "c", "spec": {"supernet": "item"},
                "layout": [[[2], 0, 2]], "dtype": "<f8", "version": 1, "segment": None,
                "weights": np.zeros(2)},
    "weights": {"type": "weights", "context_id": "c", "version": 2, "data": np.ones(2)},
    "release": {"type": "release", "context_id": "c"},
    "task": {"type": "task", "task_id": 1, "stage": "score", "kind": "quality_many",
             "context_id": "c", "version": 2, "payload": [{"d": 1}, [np.ones(3)], [None]]},
    "shutdown": {"type": "shutdown"},
    "hello": {"type": "hello", "transport": TRANSPORT_VERSION, "worker_id": "w"},
    "result": {"type": "result", "task_id": 1, "value": [0.5], "seconds": 0.25},
    "error": {"type": "error", "task_id": 1, "error": ["ValueError", "ValueError: no"]},
}  # fmt: skip


def _read_back(message, types):
    """``message`` sent over a socketpair, read with ``types``."""
    left, right = socket.socketpair()
    with left, right:
        send_message(left, message)
        return recv_message(right, types)


def _ill_typed(allowed):
    """Values of none of the types ``allowed``: a bool (no field's type,
    though ``True == 1``) and a string, or a float where strings are allowed."""
    allowed = allowed if isinstance(allowed, tuple) else (allowed,)
    return [True, 1.5 if str in allowed else "other"]


class TestMessageTables:
    """Each end reads with its own table: every listed type round-trips,
    a type of the other direction and a field of another type are refused."""

    @pytest.mark.parametrize(
        "kind, types",
        [(kind, TO_WORKER) for kind in TO_WORKER] + [(kind, TO_CONTROLLER) for kind in TO_CONTROLLER],
        ids=[*TO_WORKER, *TO_CONTROLLER],
    )
    def test_each_field_is_read_with_exactly_its_type(self, kind, types):
        message = EVERY_MESSAGE[kind]
        assert set(message) - {"type"} == set(types[kind])
        back = _read_back(message, types)
        assert set(back) == set(message) and back["type"] == kind
        for name in types[kind]:
            if isinstance(message[name], np.ndarray):
                np.testing.assert_array_equal(back[name], message[name])
        other = TO_CONTROLLER if types is TO_WORKER else TO_WORKER
        with pytest.raises(ProtocolError, match="may arrive"):
            _read_back(message, other)
        for name, allowed in types[kind].items():
            for value in _ill_typed(allowed):
                with pytest.raises(ProtocolError, match=f"with {name} "):
                    _read_back({**message, name: value}, types)


def _wire(payload):
    """``payload`` as it crosses the socket: 8-byte length, then bytes."""
    return struct.pack(">Q", len(payload)) + payload


def _hello(**fields):
    return {"type": "hello", "transport": TRANSPORT_VERSION, "worker_id": "scripted", **fields}


def _frame_with_array(dtype, shape, data):
    """A hand-built hello payload carrying one ``dtype`` array of
    ``shape`` over the raw ``data``: ``[u32 length][JSON header][data]``."""
    document = {
        "tree": _hello(extra={"__ndarray__": 0}),
        "buffers": [dtype],
        "arrays": [{"buffer": 0, "offset": 0, "shape": shape}],
    }
    header = json.dumps(document).encode()
    return struct.pack(">I", len(header)) + header + data


class _TouchOnUnpickle:
    """A pickle that creates ``path`` when it is loaded."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return open, (self.path, "w")


def _address(backend):
    """``host:port`` of ``backend``'s cluster (which binds on first use),
    an IPv6 host in brackets."""
    host, port = backend.cluster().address
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


def _dial(backend, data):
    sock = socket.create_connection(parse_address(_address(backend)), timeout=30.0)
    sock.sendall(data)
    return sock


def _still_serves(backend):
    """A well-behaved worker is admitted and a map on it completes."""
    from repro.core.engine.distributed import WorkerHost

    host = WorkerHost(_address(backend), worker_id="good")
    thread = threading.Thread(target=host.run, daemon=True)
    thread.start()
    assert stage_map(backend, [1, 2, 3]) == [1, 4, 9]
    return thread


def _honest_and_lying(backend, lie):
    """An honest worker and a :class:`LyingHost`, both linked to ``backend``."""
    address = _address(backend)
    hosts = (WorkerHost(address, worker_id="honest"), LyingHost(address, lie))
    threads = [threading.Thread(target=host.run, daemon=True) for host in hosts]
    for thread in threads:
        thread.start()
    assert backend.cluster().wait_for_workers(2, 60.0) == 2
    return threads


def _joined(thread):
    """The good worker left once its cluster shut down."""
    thread.join(timeout=30.0)
    assert not thread.is_alive()


class TestTransportHandshake:
    """A worker that does not open with this build's ``hello``, well
    formed, is refused at once: closed, never linked, never assigned a
    task."""

    @pytest.mark.parametrize(
        "payload",
        [
            encode_message(_hello(transport=1, worker_id="old")),
            encode_message({"type": "hello", "worker_id": "unversioned"}),
            encode_message({"type": "result", "transport": TRANSPORT_VERSION}),
            b"not a frame",
            encode_message(_hello(worker_id=7)),
            pickle.dumps(_hello(transport=2)),
            pickle.dumps(_hello()),
            encode_message(_hello(transport=3, worker_id="trains")),
        ],
        ids=["older_build", "no_version", "not_hello", "garbage", "bad_worker_id",
             "pickled_v2_hello", "pickled_hello", "v3_runs_training_tasks"],  # fmt: skip
    )
    def test_a_worker_without_this_builds_hello_is_refused(self, payload, dialled_in_only):
        backend = ExecutionBackend("distributed", 2)
        try:
            with _dial(backend, _wire(payload)) as sock:
                assert recv_message(sock, TO_WORKER) is None  # closed on us, nothing sent
            assert backend.cluster().host_count == 0
        finally:
            shutdown_pools()

    def test_this_builds_hello_is_admitted(self, dialled_in_only):
        # Positive control: the same dial with the current version links,
        # and the link is told to shut down when the cluster does.
        backend = ExecutionBackend("distributed", 2)
        try:
            sock = _dial(backend, _wire(encode_message(_hello())))
            assert backend.cluster().wait_for_workers(1, 30.0) == 1
        finally:
            shutdown_pools()
        with sock:
            assert recv_message(sock, TO_WORKER) == {"type": "shutdown"}


EIGHT_BYTES = bytes(8)

HOSTILE_BEFORE_HELLO = {
    "random_bytes": _wire(np.random.default_rng(0).bytes(256)),
    "truncated_frame": struct.pack(">Q", 100) + bytes(10),
    "header_past_the_end": _wire(struct.pack(">I", 4096) + json.dumps(_hello()).encode()),
    "object_dtype": _wire(_frame_with_array("|O", [1], EIGHT_BYTES)),
    "void_dtype": _wire(_frame_with_array("|V8", [1], EIGHT_BYTES)),
    "negative_shape": _wire(_frame_with_array("<f8", [-1], EIGHT_BYTES)),
    "shape_beyond_the_bytes": _wire(_frame_with_array("<f8", [2], EIGHT_BYTES)),
    "bytes_beyond_the_shape": _wire(_frame_with_array("<f8", [1], EIGHT_BYTES * 2)),
}

#: Admitted first, then a reply the receive loop must refuse.
ILL_TYPED_REPLIES = {
    "string_task_id": {"type": "result", "task_id": "1", "value": [1.0], "seconds": 0.0},
    "string_seconds": {"type": "result", "task_id": 1, "value": [1.0], "seconds": "slow"},
    "error_not_a_pair": {"type": "error", "task_id": 1, "error": "boom"},
    "unknown_type": {"type": "bogus", "task_id": 1},
}


def _control_frames(search):
    """A well-formed ``context``, ``weights`` push and ``task`` for
    ``search``'s supernet, keyed by type."""
    from repro.core.engine.distributed import _snapshot_weights
    from repro.core.engine.shm import weight_layout

    arrays = [p.data for p in search.supernet.parameters()]
    drawn = search.sample_shard(1, warming_up=True)
    batches = [search.pipeline.next_batch()]
    payload = worker_mod.quality_many_payloads(drawn, batches, [[0]])[0]
    return {
        "context": {"type": "context", "context_id": "ctx",
                    "spec": worker_mod.worker_spec_for(search.supernet),
                    "layout": tuple(weight_layout(arrays)), "dtype": "<f4", "version": 1,
                    "weights": _snapshot_weights(arrays)},
        "weights": {"type": "weights", "context_id": "ctx", "version": 2,
                    "data": _snapshot_weights(arrays)},
        "task": {"type": "task", "task_id": 1, "stage": "score", "kind": "quality_many",
                 "context_id": "ctx", "version": 2, "payload": payload},
    }  # fmt: skip


def _without(frame, name):
    return {key: value for key, value in frame.items() if key != name}


#: A frame a ``repro worker`` must refuse, and what its error line says.
REFUSED_BY_A_WORKER = {
    "ill_typed": (encode_message({"type": "task", "stage": "score"}), "task_id"),
    "undecodable": (b"not a frame", "malformed frame"),
    "unknown_type": (encode_message({"type": "bogus"}), "'bogus'"),
}


#: A controller's frames a worker must refuse, built from the
#: well-formed ones: what it sends, in order.
ILL_TYPED_CONTROL = {
    "task_without_task_id": lambda f: [f["context"], _without(f["task"], "task_id")],
    "context_without_context_id": lambda f: [_without(f["context"], "context_id")],
    "weights_of_the_wrong_size": lambda f: [f["context"], {**f["weights"], "data": np.ones(3)}],
    "release_of_a_list": lambda f: [{"type": "release", "context_id": ["ctx"]}],
}


def _nan_seconds(reply):
    reply["seconds"] = float("nan")


def _set_qualities(rewrite):
    def lie(reply):
        reply["value"] = rewrite(reply["value"])

    return lie


#: How a lying worker rewrites every ``quality_many`` result it sends.
#: Each still decodes; none is a result that fits the task it answers.
QUALITY_MANY_LIES = {
    "one_quality_short": _set_qualities(lambda qualities: qualities[:-1]),
    "one_quality_too_many": _set_qualities(lambda qualities: [*qualities, 0.5]),
    "no_qualities_at_all": _set_qualities(lambda qualities: None),
    "a_quality_as_a_string": _set_qualities(lambda qualities: [str(q) for q in qualities]),
    "a_quality_in_a_list": _set_qualities(lambda qualities: [[q] for q in qualities]),
    "a_quality_as_a_bool": _set_qualities(lambda qualities: [True, *qualities[1:]]),
    "nan_seconds": _nan_seconds,
    "unknown_type": lambda reply: reply.update(type="bogus"),
}


class LyingHost(WorkerHost):
    """The honest worker loop, except that ``lie`` rewrites each of its
    ``result`` replies before it is sent."""

    def __init__(self, address, lie):
        super().__init__(address, worker_id="liar")
        self.lie = lie

    def _handle_work(self, message):
        link, sent = self._sock, []
        self._sock = types.SimpleNamespace(sendall=sent.append)
        try:
            super()._handle_work(message)
        finally:
            self._sock = link
        reply = decode_message(sent[0][8:])  # past the length prefix
        if reply["type"] == "result":
            self.lie(reply)
        send_message(link, reply)


VALID_FRAME = encode_message(
    {
        "type": "result",
        "task_id": 7,
        "value": [[0.25, 1 / 3], {"x": np.arange(6.0).reshape(2, 3)}, np.ones(3, np.int32)],
        "seconds": 0.5,
    }
)


class TestHostileFrames:
    """No frame runs code or kills a thread: each is refused as a
    :class:`ProtocolError` (the peer is closed, an admitted one dropped
    as a lost link), and the listener keeps serving."""

    def test_a_pickle_is_refused_unrun(self, tmp_path, dialled_in_only):
        touched = tmp_path / "touched"
        backend = ExecutionBackend("distributed", 2)
        try:
            with _dial(backend, _wire(pickle.dumps(_TouchOnUnpickle(touched)))) as sock:
                assert recv_message(sock, TO_WORKER) is None
            assert not touched.exists()
            thread = _still_serves(backend)
        finally:
            shutdown_pools()
        _joined(thread)
        assert not touched.exists()

    @pytest.mark.parametrize("case", sorted(HOSTILE_BEFORE_HELLO))
    def test_a_malformed_frame_is_refused(self, case, dialled_in_only):
        backend = ExecutionBackend("distributed", 2)
        cluster = backend.cluster()
        losses = cluster.worker_losses
        try:
            with _dial(backend, HOSTILE_BEFORE_HELLO[case]) as sock:
                sock.shutdown(socket.SHUT_WR)
                assert recv_message(sock, TO_WORKER) is None
            # Refused, not linked and then lost at our EOF.
            assert cluster.host_count == 0 and cluster.worker_losses == losses
            thread = _still_serves(backend)
        finally:
            shutdown_pools()
        _joined(thread)

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    @pytest.mark.parametrize("case", sorted(ILL_TYPED_REPLIES))
    def test_an_ill_typed_reply_drops_the_link(self, case, dialled_in_only):
        backend = ExecutionBackend("distributed", 2)
        cluster = backend.cluster()
        losses = cluster.worker_losses
        try:
            with _dial(backend, _wire(encode_message(_hello()))) as sock:
                assert cluster.wait_for_workers(1, 30.0) == 1
                sock.sendall(_wire(encode_message(ILL_TYPED_REPLIES[case])))
                assert recv_message(sock, TO_WORKER) is None
            deadline = time.monotonic() + 30.0
            while cluster.host_count and time.monotonic() < deadline:
                time.sleep(0.01)
            assert cluster.host_count == 0 and cluster.worker_losses - losses == 1
            thread = _still_serves(backend)
        finally:
            shutdown_pools()
        _joined(thread)

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    @pytest.mark.parametrize("case", [*sorted(ILL_TYPED_CONTROL), "well_formed"])
    def test_a_worker_refuses_an_ill_typed_frame(self, case):
        # The worker closes the link (the controller sees a lost worker)
        # and run() raises ProtocolError, not the KeyError or ValueError
        # the frame would hit.  Positive control: the same context,
        # weights and task, well formed, get a result.
        from repro.core.engine.distributed import WorkerHost

        search = build_single(backend="serial")
        frames = _control_frames(search)
        worker_side, controller = socket.socketpair()
        controller.settimeout(30.0)
        host, refused = WorkerHost(worker_side, worker_id="scripted"), []

        def serve():
            try:
                host.run()
            except ProtocolError as error:
                refused.append(error)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            assert recv_message(controller, TO_CONTROLLER)["type"] == "hello"
            if case == "well_formed":
                for frame in frames.values():
                    send_message(controller, frame)
                reply = recv_message(controller, TO_CONTROLLER)
                assert reply["type"] == "result" and reply["task_id"] == 1
                send_message(controller, {"type": "shutdown"})
            else:
                for frame in ILL_TYPED_CONTROL[case](frames):
                    send_message(controller, frame)
            assert recv_message(controller, TO_CONTROLLER) is None
        finally:
            controller.close()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert len(refused) == (case != "well_formed")

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    @pytest.mark.parametrize("case", sorted(REFUSED_BY_A_WORKER))
    def test_repro_worker_exits_1_on_an_ill_typed_frame(self, case, capsys):
        from repro.cli import main

        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(30.0)
        frame, said = REFUSED_BY_A_WORKER[case]

        def controller():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(30.0)
                assert recv_message(conn, TO_CONTROLLER)["type"] == "hello"
                conn.sendall(_wire(frame))
                assert recv_message(conn, TO_CONTROLLER) is None

        thread = threading.Thread(target=controller, daemon=True)
        thread.start()
        try:
            code = main(["worker", "--connect", "%s:%d" % listener.getsockname()])
        finally:
            thread.join(timeout=30.0)
            listener.close()
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert code == 1 and len(errors) == 1 and errors[0].startswith("error: ")
        assert said in errors[0]

    @pytest.mark.parametrize("case", sorted(QUALITY_MANY_LIES))
    def test_a_result_that_does_not_fit_its_task_drops_the_link(self, case, dialled_in_only):
        # Beside an honest worker, one that lies in every result of a
        # TuNAS search's policy-step scoring: the first lie is refused
        # before the engine reads it, the liar's link drops and its tasks
        # rerun on the honest worker, so the search still equals serial.
        space, serial = build_space(), build_tunas(backend="serial")
        want = outcome_of(space, serial.run(), serial.supernet)
        backend = ExecutionBackend("distributed", 2)
        losses = backend.cluster().worker_losses
        threads = _honest_and_lying(backend, QUALITY_MANY_LIES[case])
        try:
            search = build_tunas(backend="distributed", workers=2)
            assert outcome_of(space, search.run(), search.supernet) == want
            assert backend.cluster().worker_losses - losses == 1
        finally:
            shutdown_pools()
        for thread in threads:
            _joined(thread)

    def test_a_quality_many_result_of_another_length_drops_the_link(self, dialled_in_only):
        backend = ExecutionBackend("distributed", 2)
        losses = backend.cluster().worker_losses
        threads = _honest_and_lying(backend, lambda reply: reply["value"].append(0.0))
        try:
            assert stage_map(backend, range(1, 9)) == [i * i for i in range(1, 9)]
            assert backend.cluster().worker_losses - losses == 1
        finally:
            shutdown_pools()
        for thread in threads:
            _joined(thread)

    def test_a_message_round_trips(self):
        message = decode_message(VALID_FRAME)
        value = message.pop("value")
        assert message == {"type": "result", "task_id": 7, "seconds": 0.5}
        assert value[0] == [0.25, 1 / 3]
        np.testing.assert_array_equal(value[1]["x"], np.arange(6.0).reshape(2, 3))
        assert value[2].dtype == np.int32 and value[2].tolist() == [1, 1, 1]

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=512),
            st.builds(
                lambda at, cut, junk: VALID_FRAME[:at] + junk + VALID_FRAME[at + cut :],
                st.integers(0, len(VALID_FRAME)),
                st.integers(0, 8),
                st.binary(max_size=8),
            ),
        )
    )
    def test_any_bytes_decode_or_are_refused(self, payload):
        try:
            message = decode_message(payload)
        except ProtocolError:
            return
        assert isinstance(message, dict) and "type" in message


def _ipv6_loopback():
    try:
        socket.create_server(("::1", 0), family=socket.AF_INET6).close()
        return True
    except OSError:
        return False


class TestAddresses:
    def test_ipv6_hosts_are_bracketed(self):
        assert parse_address("[::1]:7077") == ("::1", 7077)
        assert parse_address("127.0.0.1:0") == ("127.0.0.1", 0)
        for bad in ("7077", "[::1]", "host:port", "host:70000"):
            with pytest.raises(ValueError):
                parse_address(bad)

    @pytest.mark.skipif(not _ipv6_loopback(), reason="::1 cannot bind here")
    def test_an_ipv6_listener_admits_a_dialled_in_worker(self, monkeypatch):
        monkeypatch.setenv(DIST_BIND_ENV_VAR, "[::1]:0")
        backend = ExecutionBackend("distributed", 2)
        try:
            assert _address(backend).startswith("[::1]:")
            thread = _still_serves(backend)
        finally:
            shutdown_pools()
        _joined(thread)


class _BadValue(ValueError):
    pass


class _Flaky(RuntimeError):
    pass


class RaisingItem(ItemSupernet):
    """:class:`ItemSupernet` whose item -1 raises a ``ValueError``
    subclass, -2 a ``RuntimeError`` subclass, -3 returns an object and
    -4 raises a builtin that cannot be built from a message alone."""

    def quality_many(self, arch, inputs_seq, labels_seq):
        if arch == -1:
            raise _BadValue("item -1")
        if arch == -2:
            raise _Flaky("item -2")
        if arch == -3:
            return object()
        if arch == -4:
            b"\xff".decode("utf-8")
        return super().quality_many(arch, inputs_seq, labels_seq)


# At import, before any shared pool forks (see test_backends.py).
SUPERNETS["raising_item"] = (RaisingItem, ItemConfig)


class TestTaskErrors:
    """A task's exception crosses as its nearest builtin base plus
    ``"OrigType: message"``, so ``is_retryable`` judges it as it would
    the original; a task error is never a lost worker."""

    @pytest.mark.parametrize("backend", REMOTE)
    @pytest.mark.parametrize(
        "item, arrives_as, origin",
        [
            (-1, ValueError, "_BadValue"),
            (-2, RuntimeError, "_Flaky"),
            (-3, TypeError, "TypeError"),
            (-4, UnicodeError, "UnicodeDecodeError"),
        ],
        ids=["value_error_subclass", "runtime_error_subclass", "returns_an_object",
             "unicode_decode"],  # fmt: skip
    )
    def test_a_task_error_arrives_as_its_builtin_base(self, backend, item, arrives_as, origin):
        remote = ExecutionBackend(backend, 2)
        try:
            context = worker_mod.build_remote_context(RaisingItem(ItemConfig()), remote.cluster)
            losses = context.cluster.worker_losses
            assert context.cluster.wait_for_workers(1, SearchEngine.worker_timeout) >= 1
            tasks = [
                StageTask(stage="score", kind="quality_many", context=context.ref(), payload=p)
                for p in ((2, [None], [None]), (item, [None], [None]), (3, [None], [None]))
            ]
            with pytest.raises(Exception) as caught:
                remote.map(run_stage_task, tasks)
            assert type(caught.value) is arrives_as
            assert str(caught.value).startswith(f"{origin}: ")
            assert is_retryable(caught.value) == (arrives_as is RuntimeError)
            assert context.cluster.worker_losses == losses
        finally:
            shutdown_pools()

    def test_a_result_that_cannot_travel_is_the_tasks_error(self, monkeypatch):
        # Loopback worker threads share this module's globals.
        monkeypatch.setattr(worker_mod, "execute_stage_kind", lambda *args: object())
        backend = ExecutionBackend("distributed", 2)
        losses = backend.cluster().worker_losses
        try:
            with pytest.raises(RuntimeError, match="cannot checkpoint value of type object"):
                stage_map(backend, [1, 2])
            assert backend.cluster().worker_losses == losses
            monkeypatch.undo()
            assert stage_map(backend, [1, 2]) == [1, 4]
        finally:
            shutdown_pools()

    def test_a_payload_that_cannot_travel_leaves_nothing_pending(self):
        backend = ExecutionBackend("distributed", 2)
        try:
            context = worker_mod.build_remote_context(ItemSupernet(ItemConfig()), backend.cluster)
            cluster = context.cluster
            assert cluster.wait_for_workers(2, SearchEngine.worker_timeout) == 2
            tasks = [
                StageTask(stage="score", kind="quality_many", context=context.ref(), payload=p)
                for p in ((1, [None], [None]), (object(), [None], [None]))
            ]
            with pytest.raises(CheckpointError, match="cannot checkpoint"):
                backend.map(run_stage_task, tasks)
            assert not cluster._pending
            assert stage_map(backend, [1, 2]) == [1, 4]
        finally:
            shutdown_pools()


def test_no_engine_module_imports_or_names_pickle():
    for path in sorted(pathlib.Path(worker_mod.__file__).parent.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                names.update([node.module or "", *(alias.name for alias in node.names)])
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value if node.value.isidentifier() else "")
        assert not [name for name in names if "pickle" in name.lower()], path.name


SHIPPING_HOSTS = {
    "dlrm": lambda: DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES)),
    "mixture": lambda: MixtureSuperNetwork(MixtureSupernetConfig()),
    "transformer": lambda: TransformerSuperNetwork(TransformerSupernetConfig(num_blocks=1)),
    "vision": lambda: VisionSuperNetwork(VisionSupernetConfig()),
}


def _per_core_with_config():
    # A config, but not StackedScoring: it could be rebuilt, not scored.
    dlrm = SHIPPING_HOSTS["dlrm"]()
    proxy = PerCoreOnly(dlrm)
    proxy.config = dlrm.config
    return proxy


def _configless():
    item = ItemSupernet(ItemConfig())
    item.config = None
    return item


def _grown_item():
    item = ItemSupernet(ItemConfig())
    item.weight = Tensor(np.zeros(3), requires_grad=True)  # cls(config) builds one
    return item


def _retyped_item(dtype):
    def build():
        item = ItemSupernet(ItemConfig())  # its spec rebuilds a float64 weight
        item.weight.data = np.zeros(1, dtype=dtype)
        return item

    return build


def _mixed_dlrm():
    dlrm = SHIPPING_HOSTS["dlrm"]()
    dlrm.head.bias.data = dlrm.head.bias.data.astype(np.float64)
    return dlrm


#: supernets with no worker spec: they register nothing
UNSHIPPABLE = {
    "not_stacked": lambda: SurrogateSuperNetwork(_surrogate_quality),
    "per_core_with_config": _per_core_with_config,
    "no_config": _configless,
}

#: supernets with a worker spec whose parameters cannot travel
CANNOT_TRAVEL = {
    "retyped": _retyped_item(np.float32),
    "layout_mismatch": _grown_item,
    "mixed": _mixed_dlrm,
    "integer": _retyped_item(np.int64),
}


class TestWorkerSpec:
    """One spec form: a worker rebuilds a supernet from its name in
    ``SUPERNETS`` and its config, as JSON carries them."""

    @pytest.mark.parametrize("host", sorted(SHIPPING_HOSTS))
    def test_every_host_ships_as_a_name_and_its_config(self, host):
        supernet = SHIPPING_HOSTS[host]()
        spec = worker_mod.worker_spec_for(supernet)
        assert spec == {"supernet": host, "config": dataclasses.asdict(supernet.config)}
        rebuilt = worker_mod.build_supernet_from_spec(json.loads(json.dumps(spec)))
        assert type(rebuilt) is type(supernet) and rebuilt.config == supernet.config
        assert [(p.data.shape, p.data.dtype) for p in rebuilt.parameters()] == [
            (p.data.shape, p.data.dtype) for p in supernet.parameters()
        ]

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
    @pytest.mark.parametrize("host", sorted(SHIPPING_HOSTS))
    def test_a_rebuilt_host_reads_the_published_weights(self, host):
        # What a spawned worker does with a context: rebuild, attach the
        # segment and bind its parameters to the views, so it computes on
        # every version the controller writes in place, with no copy.
        from repro.core.engine.distributed import _HostContext

        supernet = SHIPPING_HOSTS[host]()
        context = worker_mod.build_remote_context(supernet)
        assert context is not None and context.cluster is None
        rebuilt = worker_mod.build_supernet_from_spec(worker_mod.worker_spec_for(supernet))
        hosted = _HostContext(
            rebuilt, context.weights.layout, context.weights.dtype.str, context.weights.name
        )
        try:
            for _ in range(2):
                assert hosted.shared.version == context.version
                for mine, view, want in zip(
                    rebuilt.parameters(), hosted.shared.views, context.param_arrays
                ):
                    assert mine.data is view and np.shares_memory(mine.data, view)
                    np.testing.assert_array_equal(mine.data, want)
                context.begin_write()
                assert hosted.shared.version == context.version + 1  # odd: moving
                for array in context.param_arrays:
                    array += 0.5
                context.publish()
        finally:
            hosted.close()
            context.release()
        assert all(p.data.flags.owndata for p in rebuilt.parameters())
        assert context.weights.name.lstrip("/") not in os.listdir("/dev/shm")

    @pytest.mark.parametrize("kind", sorted(UNSHIPPABLE))
    def test_what_cannot_ship_registers_nothing(self, kind):
        def no_cluster():
            raise AssertionError("a cluster was started for a supernet that cannot ship")

        supernet = UNSHIPPABLE[kind]()
        assert worker_mod.worker_spec_for(supernet) is None
        assert worker_mod.build_remote_context(supernet, no_cluster) is None

    @pytest.mark.parametrize(
        "kind, error, cause",
        [
            ("retyped", ValueError, r"parameter 0 as \(1,\) float64 for the live \(1,\) float32"),
            ("layout_mismatch", ValueError, r"parameter 0 as \(1,\) float64 for the live \(3,\)"),
            ("mixed", TypeError, "one float dtype, got float32, float64"),
            ("integer", TypeError, "one float dtype, got int64"),
        ],
    )
    def test_a_specd_supernet_that_cannot_travel_raises_at_registration(
        self, kind, error, cause
    ):
        # A spec means the search was meant to fan out: one its carriers
        # cannot hold is the supernet's fault, named here, never a search
        # that silently computes in process.  No cluster starts.
        def no_cluster():
            raise AssertionError("a cluster was started for a supernet that cannot ship")

        supernet = CANNOT_TRAVEL[kind]()
        assert worker_mod.worker_spec_for(supernet) is not None
        with pytest.raises(error, match=cause):
            worker_mod.build_remote_context(supernet, no_cluster)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
class TestBoundWeights:
    """On a ``processes`` context the shared segment *is* the weights:
    the controller's parameters and each spawned worker's are bound to
    its views, and a release hands the controller's back their own memory."""

    def test_the_controller_and_its_workers_compute_on_the_segment(self):
        search = build_single(backend="processes", workers=2)
        context = search._remote_ctx
        assert context is not None and context.weights is not None
        for param, view in zip(context.params, context.weights.views):
            assert param.data is view and np.shares_memory(param.data, view)
        payloads = TestWorkerWireProtocol()._shard_payloads(search, 2)
        assert search._remote_active(len(payloads))

        def remote():
            tasks = [StageTask("score", "quality_many", context.ref(), p) for p in payloads]
            return [value for value, _, _ in search.backend.map(run_stage_task, tasks)]

        before = remote()
        # A probe, not the protocol: written with no begin_write, so the
        # stamp holds and a worker holding a copy would score the old
        # weights.  A spawned worker scores what the segment holds now.
        stamp = context.version
        for array in context.param_arrays:
            array *= 0.5
        assert context.version == stamp
        expected = [execute_stage_kind(search.supernet, "quality_many", p) for p in payloads]
        assert remote() == expected != before
        context.release()

    def test_a_release_gives_the_parameters_their_own_memory(self):
        search = build_single(backend="processes", workers=2)
        context = search._remote_ctx
        values = [array.copy() for array in context.param_arrays]
        name = context.weights.name.lstrip("/")
        context.release()
        for param, value in zip(context.params, values):
            assert param.data.flags.owndata
            np.testing.assert_array_equal(param.data, value)
        assert name not in os.listdir("/dev/shm")

    def test_releasing_one_of_two_contexts_leaves_the_other_bound(self):
        def bound(context):
            return all(p.data is v for p, v in zip(context.params, context.weights.views))

        supernet = SHIPPING_HOSTS["dlrm"]()
        first = worker_mod.build_remote_context(supernet)
        second = worker_mod.build_remote_context(supernet)
        try:
            assert bound(second) and not bound(first)
            second.begin_write()
            for array in second.param_arrays:
                array += 0.5
            second.publish()
            # Publishing the first binds back to it: one copy of the
            # current weights, never its own stale ones.
            first.publish()
            assert bound(first) and not bound(second)
            for param, view in zip(first.params, second.weights.views):
                np.testing.assert_array_equal(param.data, view)
            second.publish()
            first.release()
            assert bound(second)
        finally:
            first.release()
            second.release()
        assert all(param.data.flags.owndata for param in supernet.parameters())
