"""What crosses a worker link: the wire protocol, its handshake, and
the one supernet spec form (``cls(config)``) a worker rebuilds from.

A link is primed with every registered context before it can be
assigned work, so after ``hello`` a worker only answers; a peer that
does not open with this build's ``hello`` is refused before it is
linked; and a supernet that cannot be rebuilt and scored remotely
registers nothing.
"""

import ast
import collections
import itertools
import os
import pathlib
import pickle
import signal
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import (
    DistributedBackend,
    ProcessPoolBackend,
    SurrogateSuperNetwork,
    shutdown_pools,
)
from repro.core.engine import RemoteContextRef, StageTask, run_stage_task
from repro.core.engine import worker as worker_mod
from repro.core.engine.shm import SharedWeights
from repro.core.engine.transport import TRANSPORT_VERSION, parse_address, recv_message
from repro.core.engine.worker import execute_stage_kind
from repro.nn import Tensor
from repro.service.protocol import write_frame
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

from .test_backends import ItemConfig, ItemSupernet, _surrogate_quality
from .test_batched_exec import PerCoreOnly
from .test_sweep import NUM_TABLES, build_single


class TestStageTasks:
    def test_unknown_task_kind_rejected(self):
        # "quality" was a kind once; it is quality_many on a group of one.
        assert worker_mod.TASK_KINDS == ("quality_many", "train_many")
        search = build_single(backend="serial")
        for kind in ("mystery", "quality"):
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
        from repro.core.engine.transport import recv_message, send_message

        search = build_single(backend="serial")
        payload = self._shard_payloads(search, 1)[0]
        arrays = [p.data for p in search.supernet.parameters()]
        worker_side, controller = socket.socketpair()
        controller.settimeout(30.0)
        host = WorkerHost(worker_side, worker_id="scripted")
        thread = threading.Thread(target=host.run, daemon=True)
        thread.start()

        def ask(context_id, version):
            ref = RemoteContextRef(context_id=context_id, version=version)
            task = StageTask(stage="score", kind="quality_many", context=ref, payload=payload)
            send_message(controller, {"type": "task", "task_id": version, "task": task})
            return recv_message(controller)

        try:
            assert recv_message(controller)["type"] == "hello"
            context = {
                "type": "context",
                "context_id": "sent",
                "spec": pickle.dumps(worker_mod.worker_spec_for(search.supernet)),
                "layout": tuple(weight_layout(arrays)),
                "version": 1,
                "weights": _snapshot_weights(arrays),
            }
            send_message(controller, context)
            unknown = ask("never-sent", 1)
            assert unknown["type"] == "error" and "never-sent" in str(unknown["error"])
            stale = ask("sent", 3)  # stamped past the version pushed
            assert stale["type"] == "error" and stale["task_id"] == 3
            assert "version 3" in str(stale["error"]) and "version 1" in str(stale["error"])
            served = ask("sent", 1)  # ...and the worker kept serving
            assert served["type"] == "result"
            assert served["value"] == execute_stage_kind(search.supernet, "quality_many", payload)
            send_message(controller, {"type": "shutdown"})
            assert recv_message(controller) is None  # EOF: it sent nothing else
        finally:
            controller.close()
        thread.join(timeout=30.0)
        assert not thread.is_alive() and host.executed == 3

    @pytest.fixture
    def controller_frames(self, monkeypatch):
        """The types of every frame a controller's receive loop reads,
        with the interpreter switching threads at every gap there is."""
        from repro.core.engine import distributed as distributed_mod

        received, real_recv = set(), distributed_mod.recv_message

        def spying_recv(sock):
            message = real_recv(sock)
            if message and threading.current_thread().name.startswith("repro-dist-recv"):
                received.add(message["type"])
            return message

        monkeypatch.setattr(distributed_mod, "recv_message", spying_recv)
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

    def test_late_joiners_are_primed_before_they_are_assignable(self, controller_frames):
        # Workers dial in one after another while this thread maps stage
        # tasks and publishes new weights between maps.  A joiner is
        # picked for tasks from the instant it is linked; every map must
        # still equal the in-process pass, and no worker may ever have
        # had to ask the controller for anything.
        from repro.core.engine.distributed import WorkerHost

        joins, live = 50, 3
        # Three searches share the cluster; the maps are for the context
        # registered — so sent to a joiner — last.
        backends = [DistributedBackend(workers=3, spawn_local=False) for _ in range(3)]
        searches = [build_single(backend=backend) for backend in backends]
        backend, map_once = backends[-1], self._mapper(searches[-1], 8)
        hosts, threads, served = collections.deque(), [], set()
        for index in range(joins + 1):
            host = WorkerHost(backend.address, worker_id=f"late-{index}")
            hosts.append(host)
            threads.append(threading.Thread(target=host.run, daemon=True))
            threads[-1].start()
            if index == 0:
                assert backend.wait_for_workers(1, timeout=60.0) == 1
            deadline = time.monotonic() + 60.0
            while host.worker_id not in served:  # admitted under these maps
                assert time.monotonic() < deadline
                served |= map_once()
            if len(hosts) > live:
                # The oldest, idle, hangs up: a publish stays cheap.
                hosts.popleft()._sock.shutdown(socket.SHUT_RDWR)
                while backend.host_count > live and time.monotonic() < deadline:
                    time.sleep(0.001)
        assert backend.host_count == live
        assert backend.worker_losses == joins + 1 - live  # the hang-ups, no other
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
        backends = [ProcessPoolBackend(workers=2) for _ in range(2)]
        searches = [build_single(backend=backend) for backend in backends]
        failures = []

        def job(search, kills):
            try:
                map_once, backend = self._mapper(search, 4), search.backend
                for _ in range(25):
                    backend.wait_for_workers()  # tops the pool up, as every placement does
                    victim = min(map_once())
                    if kills:
                        os.kill(victim, signal.SIGKILL)
                        deadline = time.monotonic() + 60.0
                        while backend.host_count == 2 and time.monotonic() < deadline:
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
        assert backends[0].worker_losses == 25
        assert "result" in controller_frames and controller_frames <= {"result", "error"}

    def test_the_protocol_has_exactly_these_message_types(self):
        """A ninth type fails here: what distributed.py sends, what it
        dispatches on, and DESIGN.md's message table are one set."""
        from repro.core.engine import distributed as distributed_mod

        sent, dispatched = set(), set()
        for node in ast.walk(ast.parse(pathlib.Path(distributed_mod.__file__).read_text())):
            if isinstance(node, ast.Dict):
                sent.update(
                    value.value
                    for key, value in zip(node.keys, node.values)
                    if isinstance(key, ast.Constant) and key.value == "type"
                )
            elif isinstance(node, ast.Compare) and ast.unparse(node.left) in (
                "kind", "message['type']", "hello.get('type')"
            ):  # fmt: skip
                dispatched.update(
                    leaf.value
                    for comparator in node.comparators
                    for leaf in ast.walk(comparator)
                    if isinstance(leaf, ast.Constant)
                )
        assert sent == dispatched == self.TYPES
        design = (pathlib.Path(__file__).parents[1] / "DESIGN.md").read_text()
        table = design.split("| message | direction | meaning |")[1].split("\n\n")[0]
        cells = [line.split("|")[1] for line in table.splitlines()[2:]]
        documented = [name.strip(" `") for cell in cells for name in cell.split("/")]
        assert sorted(documented) == sorted(self.TYPES)


class TestTransportHandshake:
    """A worker that does not open with this build's ``hello``, well
    formed, is refused at once: closed, never linked, never assigned a
    task."""

    def _dial(self, backend, frame):
        sock = socket.create_connection(parse_address(backend.address), timeout=30.0)
        write_frame(sock, frame)
        return sock

    @pytest.mark.parametrize(
        "frame",
        [
            pickle.dumps({"type": "hello", "transport": 1, "worker_id": "old"}),
            pickle.dumps({"type": "hello", "worker_id": "unversioned"}),
            pickle.dumps({"type": "result", "transport": TRANSPORT_VERSION}),
            b"not a pickle",
            pickle.dumps({"type": "hello", "transport": TRANSPORT_VERSION, "pid": "x"}),
        ],
        ids=["older_build", "no_version", "not_hello", "garbage", "bad_pid"],
    )
    def test_a_worker_without_this_builds_hello_is_refused(self, frame):
        backend = DistributedBackend(workers=2, spawn_local=False, shared=False)
        try:
            with self._dial(backend, frame) as sock:
                assert recv_message(sock) is None  # closed on us, nothing sent
            assert backend.host_count == 0
        finally:
            backend.close()

    def test_this_builds_hello_is_admitted(self):
        # Positive control: the same dial with the current version links,
        # and the link is told to shut down when the backend closes.
        backend = DistributedBackend(workers=2, spawn_local=False, shared=False)
        hello = {"type": "hello", "transport": TRANSPORT_VERSION, "worker_id": "scripted"}
        try:
            sock = self._dial(backend, pickle.dumps(hello))
            assert backend.wait_for_workers(1, timeout=30.0) == 1
        finally:
            backend.close()
        with sock:
            assert recv_message(sock) == {"type": "shutdown"}


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


def _float32_item():
    item = ItemSupernet(ItemConfig())
    item.weight = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    return item


def _grown_item():
    item = ItemSupernet(ItemConfig())
    item.weight = Tensor(np.zeros(3), requires_grad=True)  # cls(config) builds one
    return item


UNSHIPPABLE = {
    "not_stacked": lambda: SurrogateSuperNetwork(_surrogate_quality),
    "per_core_with_config": _per_core_with_config,
    "no_config": _configless,
    "float32": _float32_item,
    "layout_mismatch": _grown_item,
}


class TestWorkerSpec:
    """One spec form: a worker rebuilds a supernet as ``cls(config)``."""

    @pytest.mark.parametrize("host", sorted(SHIPPING_HOSTS))
    def test_every_host_ships_as_cls_config(self, host):
        supernet = SHIPPING_HOSTS[host]()
        spec = worker_mod.worker_spec_for(supernet)
        assert spec == (type(supernet), supernet.config)
        rebuilt = worker_mod.build_supernet_from_spec(pickle.loads(pickle.dumps(spec)))
        assert type(rebuilt) is type(supernet)
        assert [(p.data.shape, p.data.dtype) for p in rebuilt.parameters()] == [
            (p.data.shape, p.data.dtype) for p in supernet.parameters()
        ]

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
    @pytest.mark.parametrize("host", sorted(SHIPPING_HOSTS))
    def test_a_rebuilt_host_reads_the_published_weights(self, host):
        # What a spawned worker does with a context: rebuild, attach the
        # segment, copy in at the stamped version.
        supernet = SHIPPING_HOSTS[host]()
        context = worker_mod.build_remote_context(supernet)
        assert context is not None and context.cluster is None
        rebuilt = worker_mod.build_supernet_from_spec(worker_mod.worker_spec_for(supernet))
        mine = [p.data for p in rebuilt.parameters()]
        attached = SharedWeights.attach(context.weights.name, context.weights.layout)
        try:
            for _ in range(2):
                assert attached.copy_into(mine) == context.version
                for got, want in zip(mine, context.param_arrays):
                    np.testing.assert_array_equal(got, want)
                for array in context.param_arrays:
                    array += 0.5
                context.publish()
        finally:
            attached.release()
            context.release()
        assert context.weights.name.lstrip("/") not in os.listdir("/dev/shm")

    @pytest.mark.parametrize("kind", sorted(UNSHIPPABLE))
    def test_what_cannot_ship_registers_nothing(self, kind):
        def no_cluster():
            raise AssertionError("a cluster was started for a supernet that cannot ship")

        supernet = UNSHIPPABLE[kind]()
        ships_a_spec = kind in ("float32", "layout_mismatch")
        assert (worker_mod.worker_spec_for(supernet) is not None) == ships_a_spec
        assert worker_mod.build_remote_context(supernet, no_cluster, gradient_slots=4) is None
