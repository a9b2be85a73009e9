"""Execution-backend mechanics: what a fingerprint cannot see.

That a search on any backend equals the serial one — through crashes,
damaged snapshots and lost workers — is ``test_sweep.py``'s job (the
DLRM builders live there).  This file pins the rest: the backend
contract (an order-preserving map of pure tasks; on the remote
backends, of stage tasks against a supernet each worker rebuilt as
``cls(config)``), pool and worker lifecycles, the placement rule, the
wire protocol and its handshake, and the
:class:`~repro.supernet.StackedScoring` protocol.
"""

import ast
import collections
import dataclasses
import gc
import inspect
import multiprocessing.util
import os
import pathlib
import signal
import socket
import stat
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import (
    ExecutionBackend,
    PerformanceObjective,
    group_unique_architectures,
    SearchConfig,
    SearchEngine,
    SingleStepSearch,
    SurrogateSuperNetwork,
    relu_reward,
    resolve_backend,
    shutdown_pools,
)
from repro.core.engine import (
    BACKEND_ENV_VAR,
    BACKEND_NAMES,
    DIST_BIND_ENV_VAR,
    WORKERS_ENV_VAR,
    StageTask,
    run_stage_task,
)
from repro.core.engine import backends as backends_mod
from repro.core.engine.distributed import WorkerHost
from repro.core.engine.worker import SUPERNETS, build_remote_context
from repro.data import CtrTaskConfig, CtrTeacher, SingleStepPipeline
from repro.nn import Tensor
from repro.runtime.faults import _MidShardCrash
from repro.service.jobs import dlrm_search_builder, elastic_training_builder, result_payload
from repro.supernet import DlrmSuperNetwork, DlrmSupernetConfig, StackedScoring
from repro.telemetry import Telemetry

from .test_batched_exec import PerCoreOnly
from .test_sweep import (
    BUILDERS,
    NUM_TABLES,
    REMOTE,
    STEPS,
    assert_results_identical,
    build_single,
    build_space,
    build_tunas,
    capacity_cost,
    outcome_of,
    specialize,
)
from .test_telemetry import value

REMOTE_BACKENDS = REMOTE


def _surrogate_quality(arch):
    return 1.0 - 0.01 * arch["emb0/width_delta"]


def build_surrogate(backend, workers=None):
    """A search on a supernet that is not :class:`StackedScoring`: it
    scores candidate by candidate, on the engine thread."""
    teacher = CtrTeacher(CtrTaskConfig(num_tables=NUM_TABLES, batch_size=8, seed=0))
    return SingleStepSearch(
        space=build_space(),
        supernet=SurrogateSuperNetwork(_surrogate_quality, noise_sigma=0.05, seed=11),
        pipeline=SingleStepPipeline(teacher.next_batch),
        reward_fn=relu_reward([PerformanceObjective("step_time", 1.0, -0.5)]),
        performance_fn=capacity_cost,
        config=SearchConfig(
            steps=STEPS, num_cores=4, warmup_steps=2, seed=0, backend=backend, workers=workers
        ),
    )


def _square(x):
    return x * x


def _kill_this_worker_once(flag_path, engine_pid):
    """SIGKILL the calling process unless it is the engine's, if it is
    the first to ask.

    The flag file (O_EXCL-created) makes the kill fire exactly once
    across all workers and all resubmissions.
    """
    if os.getpid() == engine_pid:
        return
    try:
        fd = os.open(flag_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


@dataclasses.dataclass(frozen=True)
class ItemConfig:
    """What an :class:`ItemSupernet` does per item.  It rides in the
    config, so a worker's rebuilt copy does the same."""

    log_path: str = ""
    flag_path: str = ""
    victim: int = -1
    exit_path: str = ""
    engine_pid: int = dataclasses.field(default_factory=os.getpid)


def _flush_at_exit(path):
    time.sleep(0.2)  # an exit path that takes a while: a reaper would win the race
    pathlib.Path(f"{path}.{os.getpid()}").touch()


class ItemSupernet:
    """The smallest supernet a worker can host, ``cls(config)``: its
    "architecture" is an integer item, scored as the item squared on
    every batch, which carries no data (item 0 raises, a typed task
    error).  Each execution is logged to
    ``log_path`` (O_APPEND: one line, one write); the ``victim`` item
    SIGKILLs its worker once, after the log line, so the victim is the
    one item a per-task retry policy may run twice.  With an
    ``exit_path``, a worker that rebuilt it leaves ``exit_path.<pid>``
    behind from its exit path (a ``multiprocessing`` finaliser)."""

    def __init__(self, config):
        self.config = config
        self.weight = Tensor(np.zeros(1), requires_grad=True)
        if config.exit_path and os.getpid() != config.engine_pid:
            multiprocessing.util.Finalize(
                None, _flush_at_exit, args=(config.exit_path,), exitpriority=0
            )

    def parameters(self):
        return [self.weight]

    def quality_many(self, arch, inputs_seq, labels_seq):
        config = self.config
        if config.log_path:
            with open(config.log_path, "a") as log:
                log.write(f"{arch}\n")
            time.sleep(0.03)  # keep concurrent maps in flight while a worker dies
        if arch == config.victim:
            _kill_this_worker_once(config.flag_path, config.engine_pid)
        if arch == 0:
            raise ZeroDivisionError("item 0")
        return [float(arch * arch)] * len(inputs_seq)

    def loss_many(self, arch, inputs_seq, labels_seq):
        raise NotImplementedError("scores only")

    quality_and_loss_many = loss_many


# Registered at import, not per test: a shared ``processes`` pool forks
# its workers once and reuses them, so they must inherit the entry.
SUPERNETS["item"] = (ItemSupernet, ItemConfig)


def stage_map(backend, items, config=None):
    """Map one ``quality_many`` stage task of one batch per item through
    ``backend``, scored by an :class:`ItemSupernet` each worker rebuilt
    from its spec: the path production runs (the context is released
    after)."""
    context = build_remote_context(ItemSupernet(config or ItemConfig()), backend.cluster)
    try:
        # what the engine's first placement asks
        assert context.cluster.wait_for_workers(1, SearchEngine.worker_timeout) >= 1
        tasks = [
            StageTask(
                stage="score", kind="quality_many", context=context.ref(),
                payload=(item, [None], [None]),
            )
            for item in items
        ]
        return [value[0] for value, _, _ in backend.map(run_stage_task, tasks)]
    finally:
        context.release()


@pytest.fixture
def dialled_in_only(monkeypatch):
    """A ``distributed`` backend built in the test listens on loopback and
    spawns no worker (a bind in ``$REPRO_DIST_BIND`` means workers will
    dial in); its cluster is shut down after the test."""
    monkeypatch.setenv(DIST_BIND_ENV_VAR, "127.0.0.1:0")
    yield
    shutdown_pools()


def executions(log_path):
    with open(log_path) as log:
        return collections.Counter(int(line) for line in log)


def _shm_segments():
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _listening_sockets():
    """Inodes of this process's sockets that are in the listening state."""
    inodes = set()
    for name in os.listdir("/proc/self/fd"):
        try:
            status = os.fstat(int(name))
            if not stat.S_ISSOCK(status.st_mode):
                continue
            sock = socket.socket(fileno=os.dup(int(name)))
        except OSError:
            continue  # the listing's own fd, or one closed meanwhile
        with sock:
            if sock.getsockopt(socket.SOL_SOCKET, socket.SO_ACCEPTCONN):
                inodes.add(status.st_ino)
    return inodes


def _running(pid):
    """``pid``'s parent pid if it is still running (not gone, not a zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state, parent = handle.read().rpartition(")")[2].split()[:2]
    except OSError:
        return None
    return int(parent) if state != "Z" else None


def _child_pids(pid):
    """Direct children of ``pid`` that are still running."""
    return [
        int(name)
        for name in os.listdir("/proc")
        if name.isdigit() and _running(name) == pid
    ]


class TestBackendContract:
    def test_serial_map_preserves_order(self):
        backend = ExecutionBackend("serial")
        assert backend.map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_serial_map_propagates_exceptions(self):
        with pytest.raises(ZeroDivisionError):
            ExecutionBackend("serial").map(lambda x: 1 // x, [1, 2, 0, 3])

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ExecutionBackend("processes", workers=0)

    def test_resolve_backend(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        for serial in (resolve_backend(None), resolve_backend("serial", workers=4)):
            assert (serial.name, serial.workers, serial.remote) == ("serial", 1, False)
        for name in REMOTE:
            remote = resolve_backend(name, workers=2)
            assert (remote.name, remote.workers, remote.remote) == (name, 2, True)
        # The names are the only spellings (as on the CLI), and the error
        # lists them; `threads` is a deleted backend's name.  A backend
        # instance is no spec: a search asks for a backend by name.
        assert BACKEND_NAMES == ("serial", "processes", "distributed")
        refused = ("threads", "process", "procs", "processpool", "mp", "thread", "threadpool", "dist")
        for spelling in ("gpu", *refused, ExecutionBackend("processes", 2)):
            with pytest.raises(ValueError) as excinfo:
                resolve_backend(spelling)
            message = str(excinfo.value)
            assert "unknown execution backend" in message and "from backend spec" in message
            assert str(BACKEND_NAMES) in message

    def test_resolve_backend_env_fallbacks(self, monkeypatch):
        # Construction is lazy: no worker starts until a map ships.
        monkeypatch.setenv(BACKEND_ENV_VAR, "processes")
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        pools = dict(backends_mod._POOLS)
        backend = resolve_backend(None)
        assert (backend.name, backend.workers) == ("processes", 2)
        assert backends_mod._POOLS == pools
        # An explicit spec still wins over the environment.
        assert resolve_backend("serial").name == "serial"

    def test_bad_workers_env_names_the_variable(self, monkeypatch):
        # Refused on every backend, serial too, whether it would be read
        # there or not: a count below one is as wrong as a word.
        for value in ("four", "0", "-2"):
            monkeypatch.setenv(WORKERS_ENV_VAR, value)
            for name in BACKEND_NAMES:
                with pytest.raises(ValueError, match=rf"REPRO_WORKERS.*'{value}'"):
                    resolve_backend(name)

    def test_env_sourced_bad_backend_names_the_variable(self, monkeypatch):
        for spelling in ("gpu", "threads"):
            monkeypatch.setenv(BACKEND_ENV_VAR, spelling)
            with pytest.raises(ValueError) as excinfo:
                resolve_backend(None)
            assert f"from ${BACKEND_ENV_VAR}" in str(excinfo.value)
            assert str(BACKEND_NAMES) in str(excinfo.value)

    def test_the_product_reads_exactly_three_environment_variables(self):
        """A new kill switch fails here, not in a later review."""
        read, mentions = [], 0
        for path in pathlib.Path(backends_mod.__file__).parents[2].rglob("*.py"):
            tree = ast.parse(path.read_text())
            constants = {
                target.id: node.value.value
                for node in tree.body
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    mentions += ast.unparse(node) in ("os.environ", "os.getenv")
                if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                    "os.environ.get",
                    "os.getenv",
                ):
                    key = node.args[0]
                elif isinstance(node, ast.Subscript) and ast.unparse(node.value) == "os.environ":
                    key = node.slice
                else:
                    continue
                read.append(key.value if isinstance(key, ast.Constant) else constants[key.id])
        # Every mention of the environment is a read of a name known here.
        assert mentions == len(read)
        assert sorted(read) == ["REPRO_BACKEND", "REPRO_DIST_BIND", "REPRO_WORKERS"]


class TestStackedScoringProtocol:
    def test_dlrm_supernet_is_stacked_scoring(self):
        supernet = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES))
        assert isinstance(supernet, StackedScoring)

    def test_surrogate_is_not_stacked_scoring(self):
        assert not isinstance(SurrogateSuperNetwork(lambda a: 1.0), StackedScoring)

    def test_mid_shard_proxy_follows_inner_supernet(self):
        # The crash proxy forwards every lookup (counting the scoring
        # calls) to the inner supernet, so the protocol check reflects
        # the wrapped supernet's capability.
        stacked = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES))
        assert isinstance(
            _MidShardCrash(stacked, after_calls=99, on_fire=lambda: None),
            StackedScoring,
        )
        flat = SurrogateSuperNetwork(lambda a: 1.0)
        assert not isinstance(
            _MidShardCrash(flat, after_calls=99, on_fire=lambda: None),
            StackedScoring,
        )


class TestBackendEquivalence:
    """What the sweep does not cover: a supernet that scores candidate
    by candidate.  Swapped in after construction, it is not what the
    workers rehydrated, so on a remote backend it scores in process."""

    @pytest.mark.parametrize("backend", REMOTE_BACKENDS)
    @pytest.mark.parametrize("strategy", ["single_step", "tunas"])
    def test_remote_matches_serial_without_grouping(self, strategy, backend):
        def run(name):
            search = {"single_step": build_single, "tunas": build_tunas}[strategy](
                name, workers=2
            )
            search.supernet = PerCoreOnly(search.supernet)
            return search.run()

        assert_results_identical(run("serial"), run(backend), build_space())


@pytest.mark.parametrize("backend", REMOTE_BACKENDS)
class TestRemoteContract:
    """The map contract both cluster backends keep, on their own workers."""

    def test_map_preserves_order(self, backend):
        items = list(range(1, 17))
        assert stage_map(ExecutionBackend(backend, 2), items) == [i * i for i in items]

    def test_map_propagates_task_exceptions(self, backend):
        # A deterministic task failure travels back as a typed error
        # message and re-raises controller-side — never a retry, never
        # a WorkerCrashError.
        remote = ExecutionBackend(backend, 2)
        losses = remote.cluster().worker_losses
        with pytest.raises(ZeroDivisionError):
            stage_map(remote, [1, 2, 0, 3])
        assert remote.cluster().worker_losses == losses

    def test_any_other_fn_runs_in_process(self, backend):
        # Only stage tasks ship: any other fn, picklable or not, runs the
        # in-process loop, and starts no worker.
        remote = ExecutionBackend(backend, 2)
        pools = dict(backends_mod._POOLS)
        calls = []

        def fn(x):  # closure: cannot travel to a worker
            calls.append(x)
            return x + 1

        assert remote.map(fn, [1, 2, 3]) == [2, 3, 4]
        assert remote.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert calls == [1, 2, 3]  # ran in this process, in order
        assert backends_mod._POOLS == pools

    def test_the_constructor_takes_a_worker_count_only(self, backend, monkeypatch):
        # A backend is a name and a worker count.  Where a cluster listens
        # is $REPRO_DIST_BIND's to say, how it starts processes the
        # platform's; a cluster is always shared.
        assert list(inspect.signature(ExecutionBackend).parameters) == ["name", "workers"]
        monkeypatch.delenv(DIST_BIND_ENV_VAR, raising=False)
        remote = ExecutionBackend(backend, 2)
        assert vars(remote) == {
            "name": backend, "workers": 2, "remote": True, "key": (backend, 2, None),
        }

    def test_a_backend_holds_no_search_state(self, backend):
        # Whatever a search does on it — context, first wait, worker
        # losses, a shutdown — is the engine's: the backend sets no
        # attribute after construction.
        search = build_single(backend=backend, workers=2)
        fields = dict(vars(search.backend))
        search.step(0)
        shutdown_pools()
        search.step(1)
        assert vars(search.backend) == fields

    def test_single_worker_never_starts_a_cluster(self, backend):
        search = build_single(backend=backend, workers=1)
        assert search._remote_ctx is None
        search.step(0)
        assert search.backend.key not in backends_mod._POOLS


class TestPoolLifecycle:
    def test_spawned_workers_exit_cleanly(self, tmp_path):
        # A worker told to shut down leaves its loop and closes its end;
        # that EOF is no loss, and the worker is joined, not SIGKILLed:
        # it runs its whole exit path, and exits 0.
        backend = ExecutionBackend("processes", 2)
        exit_path = tmp_path / "flushed"
        assert stage_map(backend, [1, 2, 3], ItemConfig(exit_path=str(exit_path))) == [1, 4, 9]
        processes = [link.process for link in backend.cluster()._links.values()]
        assert len(processes) == 2
        shutdown_pools()
        assert [process.exitcode for process in processes] == [0, 0]
        assert sorted(tmp_path.iterdir()) == sorted(
            pathlib.Path(f"{exit_path}.{process.pid}") for process in processes
        )

    def test_shutdown_pools_clears_shared_registry(self):
        backend = ExecutionBackend("processes", 2)
        assert stage_map(backend, [1, 2]) == [1, 4]
        assert backends_mod._POOLS
        shutdown_pools()
        assert not backends_mod._POOLS
        # Clusters rebuild transparently on the next map.
        assert stage_map(backend, [2, 3]) == [4, 9]

    @pytest.mark.parametrize("backend", REMOTE_BACKENDS)
    def test_a_search_survives_shutdown_pools(self, backend):
        # shutdown_pools() mid-search closes the cluster the search's context
        # lives on.  The next fan-out publishes the supernet to the cluster
        # that replaced it (and releases the old context), ships, and the
        # search ends where serial does.
        def run(name, shut_down_at=None):
            search = build_tunas(name, workers=2)
            first, shipped, history = search._remote_ctx, [], []
            for step in range(STEPS):
                if step == shut_down_at:
                    shutdown_pools()
                    shipped = spy_on_shipped_tasks(search)
                history.append(search.step(step))
            if shut_down_at is not None:
                assert shipped and first._released
                assert search._remote_ctx.cluster is search.backend.cluster()
            return outcome_of(build_space(), search.build_result(history), search.supernet)

        assert run(backend, shut_down_at=2) == run("serial")


class TestSpawnedWorkers:
    """What is particular to workers the controller spawns itself."""

    def test_lost_worker_costs_only_its_own_tasks(self, tmp_path):
        # Two maps in flight on one shared cluster (two searches in one
        # process); a worker dies under one of them.  Only the orphaned
        # items may run again: the victim (logged, then killed) twice,
        # every other item of either map exactly once.
        items = list(range(1, 11))
        killer = ItemConfig(str(tmp_path / "a.log"), str(tmp_path / "killed"), victim=5)
        bystander = ItemConfig(str(tmp_path / "b.log"))
        first = ExecutionBackend("processes", 2)
        second = ExecutionBackend("processes", 2)
        assert stage_map(first, [1, 2]) == [1, 4]  # both workers are up
        cluster = first.cluster()
        losses = cluster.worker_losses
        outcome = {}
        thread = threading.Thread(
            target=lambda: outcome.update(values=stage_map(second, items, bystander))
        )
        thread.start()
        values = stage_map(first, items, killer)
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert (tmp_path / "killed").exists()  # a worker really died mid-map
        assert values == outcome["values"] == [i * i for i in items]
        assert cluster.worker_losses - losses == 1
        expected = {item: 1 for item in items}
        assert executions(bystander.log_path) == expected
        assert executions(killer.log_path) == {**expected, 5: 2}
        # ...and the lost worker is replaced before the next map.
        assert stage_map(first, [3, 4]) == [9, 16]
        assert cluster.host_count == 2

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_processes_never_listen(self):
        shutdown_pools()  # the listener below must be a new one
        before = _listening_sockets()
        backend = ExecutionBackend("processes", 2)
        assert stage_map(backend, [1, 2, 3]) == [1, 4, 9]
        assert _listening_sockets() == before
        # The probe does see a listener when there is one.
        listener = ExecutionBackend("distributed", 2)
        assert stage_map(listener, [1, 2, 3]) == [1, 4, 9]
        assert len(_listening_sockets() - before) == 1
        shutdown_pools()
        assert _listening_sockets() == before

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
    def test_shutdown_reaps_workers_and_segments(self):
        segments = set(os.listdir("/dev/shm"))
        telemetry = Telemetry()
        search = build_single(backend="processes", workers=2, telemetry=telemetry)
        search.run()
        pids = {link.process.pid for link in search._remote_ctx.cluster._links.values()}
        assert len(pids) == 2 and all(_running(pid) is not None for pid in pids)
        # The context's segments go with its engine: a finaliser queues
        # the release, the shutdown performs it.
        del search
        gc.collect()
        shutdown_pools()
        assert not any(_running(pid) is not None for pid in pids)
        assert set(os.listdir("/dev/shm")) <= segments

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_sigkilled_controller_leaves_no_orphans(self):
        # Workers hold no copy of any controller-side socket, so the
        # controller's death is an EOF to each of them.
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"),
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "search", "--steps", "100000",
             "--backend", "processes", "--workers", "2"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60.0
            children = []
            while len(children) < 2 and time.monotonic() < deadline:
                assert proc.poll() is None
                time.sleep(0.1)
                children = _child_pids(proc.pid)
            assert len(children) >= 2  # two workers (and shm's resource tracker)
            time.sleep(0.5)  # mid-search: tasks are in flight
            children = _child_pids(proc.pid)
        finally:
            proc.kill()
            proc.wait(timeout=30.0)
        deadline = time.monotonic() + 10.0
        while any(_running(pid) is not None for pid in children) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in children if _running(pid) is not None]


def quickstart(strategy, backend, seed=3, workers=2, steps=9):
    """``(space, engine)`` of the quickstart DLRM search or elastic
    training (batch 64, four cores): what the benchmark and the service
    run, and what ``result_payload`` fingerprints."""
    if strategy == "elastic":
        space, _, factory = elastic_training_builder(
            steps, seed, backend=backend, workers=workers
        )
        return space, factory()
    space, factory = dlrm_search_builder(steps, seed, True, backend=backend, workers=workers)
    return space, factory().search_algorithm


def fingerprint(space, result):
    return result_payload(space, result)["fingerprint"]


def spy_on_shipped_tasks(search):
    """Record the kinds of every stage-task map ``search``'s backend is
    handed (``backend.map(run_stage_task, tasks)``), one list per map."""
    shipped = []
    inner_map = search.backend.map

    def traced_map(fn, items):
        if fn is run_stage_task:
            shipped.append([task.kind for task in items])
        return inner_map(fn, items)

    search.backend.map = traced_map
    return shipped


def assert_same_weights(want, got):
    for expected, actual in zip(want.parameters(), got.parameters(), strict=True):
        np.testing.assert_array_equal(expected.data, actual.data)


class TestRemoteTraining:
    """What a training strategy does on a remote backend: it registers
    its context (on ``processes`` its weights are bound to the segment),
    and computes every step in this process.  Only forward-only scoring
    ships: TuNAS's policy step and specialization."""

    @pytest.mark.parametrize("backend", REMOTE_BACKENDS)
    @pytest.mark.parametrize("strategy", ["single_step", "elastic"])
    def test_training_computes_in_process(self, strategy, backend):
        # backend.map is never handed run_stage_task, and the final
        # weights are array_equal to serial.
        space, serial = quickstart(strategy, "serial")
        _, remote = quickstart(strategy, backend)
        assert remote._remote_ctx is not None and remote._remote_active()
        shipped = spy_on_shipped_tasks(remote)
        assert fingerprint(space, remote.run()) == fingerprint(space, serial.run())
        assert shipped == []
        assert_same_weights(serial.supernet, remote.supernet)

    @pytest.mark.parametrize("backend", REMOTE_BACKENDS)
    @pytest.mark.parametrize("unique", [1, 4])
    def test_a_shard_ships_only_with_two_groups_or_more(self, backend, unique):
        # The placement rule, both ways, on a scoring-only search.  A
        # converged shard (one group) has nothing to overlap with: it is
        # scored in this process and ships no task.  Four groups are
        # four ``quality_many`` tasks a step.  Frozen weights never move,
        # so neither way publishes a version.
        def run(backend):
            _, factory = specialize(STEPS, 3, backend)
            search = factory()
            rng = np.random.default_rng(8)
            archs = [search.space.sample(rng) for _ in range(unique)]
            shard = [(arch, search.space.indices_of(arch)) for arch in archs]
            shard = shard * (4 // unique)
            assert len(group_unique_architectures(shard)) == unique
            search.sample_shard = lambda count, warming_up: shard
            return search

        remote = run(backend)
        assert remote._remote_active()
        shipped = spy_on_shipped_tasks(remote)
        context = remote._remote_ctx
        built_at, publish, published = context.version, context.publish, []
        context.publish = lambda *args: published.append(publish(*args))
        assert_results_identical(run("serial").run(), remote.run(), remote.space)
        assert published == [] and context.version == built_at
        assert shipped == ([] if unique == 1 else [["quality_many"] * 4] * STEPS)

    @pytest.mark.parametrize("backend", REMOTE_BACKENDS)
    def test_each_weight_update_publishes_once_before_the_next_map(self, backend):
        # TuNAS trains, then ships its policy step's scoring: one publish
        # per step, each ahead of that step's map.
        remote = build_tunas(backend, workers=2)
        context = remote._remote_ctx
        events, publish = [], context.publish
        context.publish = lambda *args: events.append("publish") or publish(*args)
        inner_map = remote.backend.map

        def traced_map(fn, items):
            if fn is run_stage_task:
                events.append("map")
            return inner_map(fn, items)

        remote.backend.map = traced_map
        assert_results_identical(build_tunas("serial").run(), remote.run(), build_space())
        assert events == ["publish", "map"] * STEPS

    def test_a_search_nobody_dialled_into_waits_once(self, dialled_in_only, monkeypatch):
        # Bound for external workers, none came: the first ask for one
        # spends the engine's worker_timeout, every later ask only
        # looks, and the search runs in process — until a worker links.
        serial = build_tunas(backend="serial").run()
        monkeypatch.setattr(SearchEngine, "worker_timeout", 0.2)
        try:
            search = build_tunas(backend="distributed", workers=2)
            assert search._remote_ctx is not None
            cluster = search.backend.cluster()
            waits = []
            inner_wait = cluster.wait_for_workers

            def traced_wait(count, timeout):
                waits.append(timeout)
                return inner_wait(count, timeout)

            cluster.wait_for_workers = traced_wait
            assert_results_identical(serial, search.run(), build_space())
            assert len(waits) >= STEPS and sorted(waits)[-2:] == [0.0, 0.2]
            worker = threading.Thread(
                target=WorkerHost(cluster.address).run, daemon=True
            )
            worker.start()
            assert inner_wait(1, 30.0) == 1
            assert search._remote_active()
        finally:
            shutdown_pools()
        worker.join(timeout=30.0)
        assert not worker.is_alive()

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
    @pytest.mark.parametrize("backend", REMOTE_BACKENDS)
    def test_a_supernet_that_cannot_ship_starts_no_cluster(self, backend):
        # Only a StackedScoring supernet with a config runs stage tasks.
        # Anything else registers no context: no cluster, no weights
        # segment, and its search runs in this process.  Positive
        # control: the DLRM search starts both.
        for build, ships in ((build_surrogate, False), (build_single, True)):
            shutdown_pools()
            try:
                before = _shm_segments()
                search = build(backend, workers=2)
                result = search.run()
                assert (search._remote_ctx is not None) == ships
                assert (search.backend.key in backends_mod._POOLS) == ships
                mapped = bool(_shm_segments() - before)
                assert mapped == (ships and backend == "processes")
                assert_results_identical(build("serial").run(), result, build_space())
            finally:
                shutdown_pools()

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
    def test_the_pooled_quickstart_trains_on_a_float32_segment(self):
        # The product's pooled search keeps its context: the float32
        # supernet's weights are bound to a float32 segment, and a step
        # trains them there in this process.  (A layout that still
        # demanded float64 would leave no context.)
        try:
            _, search = quickstart("single_step", "processes", steps=1)
            shipped = spy_on_shipped_tasks(search)
            search.run()
            ctx = search._remote_ctx
            assert ctx is not None and shipped == [] and ctx.weights.dtype == np.float32
            for param, view in zip(ctx.params, ctx.weights.views, strict=True):
                assert param.data is view and param.data.dtype == np.float32
        finally:
            shutdown_pools()

    def test_unequal_batches_train_in_process(self):
        # A group of unequal batches backprops one contribution per
        # *batch* (``loss_many``'s fallback); on a remote backend too its
        # gradient equals serial.
        def gradients(backend):
            search = build_single(backend=backend, workers=2)
            drawn = search.sample_shard(4, warming_up=True)
            batches = [
                CtrTeacher(
                    CtrTaskConfig(num_tables=NUM_TABLES, batch_size=size, seed=i)
                ).next_batch()
                for i, size in enumerate((8, 16, 16, 16))
            ]
            groups = [[0, 1], [2, 3]]
            drawn = [drawn[0], drawn[0], drawn[2], drawn[2]]
            shipped = spy_on_shipped_tasks(search)
            qualities = search.score_shard(drawn, batches, groups, trains_on_shard=True)
            search.accumulate_shard_gradient(drawn, batches)
            return qualities, shipped, [p.grad for p in search.supernet.parameters()]

        want_qualities, _, want = gradients("serial")
        qualities, shipped, got = gradients("processes")
        assert shipped == [] and qualities == want_qualities
        assert any(grad is not None for grad in want)
        for expected, actual in zip(want, got):
            assert (expected is None) == (actual is None)
            if expected is not None:
                np.testing.assert_array_equal(expected, actual)

    def test_a_training_score_finishes_the_gradient_on_every_backend(self):
        # Gradients left over from before are zeroed, the three groups'
        # contributions are all in when score_shard returns, computed in
        # this process on every backend, and the weight-update stage has
        # nothing left to add.
        def gradients(backend, stale):
            search = build_single(backend=backend, workers=2)
            params = search.supernet.parameters()
            for param in params:
                param.grad = np.ones_like(param.data) if stale else None
            drawn = search.sample_shard(4, warming_up=True)
            drawn = [drawn[0], drawn[0], drawn[2], drawn[3]]
            groups = group_unique_architectures(drawn)
            batches = search.pipeline.next_shard(4)
            shipped = spy_on_shipped_tasks(search)
            search.score_shard(drawn, batches, groups, trains_on_shard=True)
            scored = [None if p.grad is None else p.grad.copy() for p in params]
            search.accumulate_shard_gradient(drawn, batches)
            for before, param in zip(scored, params):
                assert (before is None) == (param.grad is None)
                if before is not None:
                    np.testing.assert_array_equal(before, param.grad)
            return len(groups), shipped, scored

        count, _, want = gradients("serial", stale=False)
        assert count == 3 and any(grad is not None for grad in want)
        for backend in ("serial", *REMOTE_BACKENDS):
            _, shipped, got = gradients(backend, stale=True)
            assert shipped == []
            for expected, actual in zip(want, got):
                assert (expected is None) == (actual is None)
                if expected is not None:
                    np.testing.assert_array_equal(expected, actual)

    def test_in_process_every_forward_runs_before_the_first_backward(self, monkeypatch):
        # All of a shard's group passes are built before any backward
        # runs, then the backwards follow in group order.
        search = build_single(backend="serial")
        calls = []
        forward = search.supernet.quality_and_loss_many

        def traced_forward(arch, inputs_seq, labels_seq):
            calls.append(("forward", len(inputs_seq)))
            return forward(arch, inputs_seq, labels_seq)

        backward = Tensor.backward

        def traced_backward(tensor, grad=None):
            calls.append(("backward", float(grad)))
            return backward(tensor, grad)

        search.supernet.quality_and_loss_many = traced_forward
        monkeypatch.setattr(Tensor, "backward", traced_backward)
        drawn = search.sample_shard(4, warming_up=True)
        drawn = [drawn[0], drawn[1], drawn[1], drawn[1]]
        groups = group_unique_architectures(drawn)
        batches = search.pipeline.next_shard(4)
        search.score_shard(drawn, batches, groups, trains_on_shard=True)
        assert calls == [("forward", 1), ("forward", 3), ("backward", 0.25), ("backward", 0.75)]

    def test_ipc_bytes_count_the_batches_going_out(self):
        # TuNAS ships its validation batch once per candidate, every step.
        telemetry = Telemetry()
        search = build_tunas(backend="processes", workers=2, telemetry=telemetry)
        batch = search.pipeline.next_valid_batch()
        batch_bytes = batch.labels.nbytes + sum(a.nbytes for a in batch.inputs.values())
        search.run()
        moved = value(telemetry.counter("engine.ipc.bytes"), backend="processes")
        assert moved == STEPS * search.config.num_cores * batch_bytes


class TestRestoredEngines:
    """A restored engine is a fresh engine whose workers were primed with
    its construction-time weights: ``load_state_dict`` marks the restored
    ones dirty, so they go out before its first remote fan-out."""

    @pytest.mark.parametrize("backend", REMOTE_BACKENDS)
    def test_the_first_fan_out_after_a_restore_scores_the_restored_weights(self, backend):
        # Scored before any weight write of its own, which would publish.
        source = build_tunas("serial")
        for step in range(3):
            source.step(step)
        state = source.state_dict()

        def first_scores(name):
            search = build_tunas(name, workers=2)
            search.load_state_dict(state)
            shipped = spy_on_shipped_tasks(search)
            drawn = search.controller.sample_many(4)
            scores = search.score_on_batch(drawn, search.pipeline.next_valid_batch())
            return scores, shipped

        want, _ = first_scores("serial")
        scores, shipped = first_scores(backend)
        assert shipped == [["quality_many"] * 4] and scores == want


class TestFinaliserNeverBlocks:
    """An engine dropped inside a reference cycle is finalised by the
    cyclic collector at an arbitrary allocation — possibly while this
    thread holds a worker link's send lock, which releasing the
    engine's context needs.  The finaliser therefore only queues."""

    def test_collection_inside_send_does_not_deadlock(self, monkeypatch):
        from repro.core.engine import distributed as distributed_mod

        gc.collect()
        gc.disable()
        try:
            doomed = build_tunas(backend="processes", workers=2)
            context = doomed._remote_ctx
            doomed.step(0)  # its context is live on both workers
            doomed.cycle = doomed
            del doomed

            real_send = distributed_mod.send_message
            released_under_lock = []

            def collecting_send(sock, message):
                gc.collect()  # the collector strikes under link._send_lock
                released_under_lock.append(context._released)
                real_send(sock, message)

            monkeypatch.setattr(distributed_mod, "send_message", collecting_send)
            survivor = build_tunas(backend="processes", workers=2)
            stepped = threading.Thread(target=survivor.step, args=(0,), daemon=True)
            stepped.start()
            stepped.join(timeout=60.0)
            assert not stepped.is_alive()  # (hangs here with a releasing finaliser)
            # Queued by the finaliser, released by the cluster's next map.
            assert released_under_lock[0] is False
            assert context._released
        finally:
            gc.enable()


class TestEngineTelemetry:
    @pytest.mark.parametrize("backend", ["processes", "distributed"])
    def test_engine_metrics_recorded(self, backend):
        telemetry = Telemetry()
        result = build_tunas(backend, workers=2, telemetry=telemetry).run()
        assert len(result.history) == STEPS
        assert value(telemetry.gauge("engine.workers"), backend=backend) == 2
        tasks = value(telemetry.counter("engine.tasks"), stage="score", backend=backend)
        # One worker span per task, labelled by the id of the worker that
        # ran it.
        spans = [
            (dict(key), stats)
            for key, stats in telemetry.trace.registry.histogram("span.worker").series().items()
        ]
        assert tasks > 0 and sum(stats["count"] for _, stats in spans) == tasks
        cluster = ExecutionBackend(backend, 2).cluster()
        for labels, _ in spans:
            assert labels["stage"] == "score" and labels["backend"] == backend
            assert labels["worker"] in cluster._links
        assert value(telemetry.gauge("engine.hosts"), backend=backend) == 2
        # The autograd keeps no counters: nothing is recorded under ``nn.``.
        metrics = telemetry.registry.snapshot().values()
        assert [name for kind in metrics for name in kind if name.startswith("nn.")] == []

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_weight_update_fans_nothing_out(self, backend):
        # Loss graphs and their backwards stay on the engine thread, and
        # a step that trains on its shard ships nothing at all; TuNAS's
        # policy step scores remotely.  On serial nothing is a task.
        for strategy, build in BUILDERS.items():
            telemetry = Telemetry()
            build(backend=backend, workers=2, telemetry=telemetry).run()
            stages = {dict(key)["stage"] for key in telemetry.counter("engine.tasks").series()}
            ships = strategy == "tunas" and backend != "serial"
            assert stages == ({"score"} if ships else set()), strategy


class TestDistributedEquivalence:
    """Workers that are other programs: the real ``repro worker`` CLI."""

    def test_killed_worker_mid_shard_resubmits_and_matches_serial(self, dialled_in_only):
        # Two *external* worker processes (the real `repro worker` CLI);
        # the first is SIGKILLed as step 1's first stage-task map starts,
        # so it is assigned tasks it will never answer.  Its orphaned
        # tasks must resubmit to the survivor and the result must stay
        # bit-identical to serial.
        serial = build_tunas(backend="serial").run()
        cluster = ExecutionBackend("distributed", 2).cluster()  # binds the listener
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(
                os.path.dirname(__file__), os.pardir, "src"
            ),
        )
        procs = []
        try:
            address = "%s:%d" % cluster.address
            for _ in range(2):
                procs.append(
                    subprocess.Popen(
                        [sys.executable, "-m", "repro", "worker", "--connect", address],
                        env=env,
                        stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE,
                        text=True,
                    )
                )
            assert cluster.wait_for_workers(2, 60.0) == 2
            losses = cluster.worker_losses
            search = build_tunas(backend="distributed", workers=2)
            backend, inner_step = search.backend, search.step

            def map_killing_a_worker(fn, items):
                if fn is run_stage_task:
                    del backend.map  # once
                    procs[0].kill()
                    procs[0].wait(timeout=30.0)
                return type(backend).map(backend, fn, items)

            def step_then_kill(index):
                if index == 1:
                    backend.map = map_killing_a_worker
                return inner_step(index)

            search.step = step_then_kill
            result = search.run()
            assert procs[0].returncode == -signal.SIGKILL
            assert cluster.worker_losses - losses >= 1  # the killed host
            assert_results_identical(serial, result, build_space())
        finally:
            shutdown_pools()
            for proc in procs:
                if proc.poll() is None:
                    try:
                        proc.wait(timeout=30.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                proc.communicate()
