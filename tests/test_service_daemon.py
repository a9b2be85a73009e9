"""Daemon tests: wire protocol, end-to-end jobs, kill-the-daemon durability.

The load-bearing acceptance test lives here: SIGKILL a daemon with one
job running and two queued, one of each job kind, restart it over the
same spool, and all three jobs must reach ``done`` with results
bit-identical to uninterrupted one-shot runs of the same specs (the
same fingerprint contract the crash/resume tests established for the
supervisor).

Every job runs serially in a process forked for it; the
``job_process`` tests read those processes' tables in /proc.  A daemon
started with a remote ``$REPRO_BACKEND`` refuses to serve, so every
daemon here runs with it unset.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.engine import backends, shutdown_pools
from repro.runtime import load_elastic_artifact
from repro.service import (
    DaemonConfig,
    JobSpec,
    SchedulerConfig,
    ServiceClient,
    ServiceDaemon,
    one_shot_payload,
)
from repro.service.jobs import run_job, run_job_in_process, run_spec
from repro.service.protocol import (
    ProtocolError,
    QuotaExceededError,
    ResultsNotReadyError,
    ServiceError,
    UnknownJobError,
    UnknownVerbError,
)

from .test_service_scheduler import wait_until

TINY = {"steps": 3, "seed": 7}


@pytest.fixture()
def daemon(tmp_path, monkeypatch):
    """An in-process daemon on a background thread, drained at teardown."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    config = DaemonConfig(
        spool=tmp_path / "spool",
        scheduler=SchedulerConfig(
            max_concurrent=2,
            tenant_max_queued=3,
            poll_interval_s=0.005,
        ),
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


class TestProtocol:
    def test_ping_reports_stats(self, daemon):
        _, client = daemon
        stats = client.ping()
        assert stats["queued"] == 0 and stats["running"] == 0
        assert stats["pid"] == os.getpid()

    def test_unknown_verb_is_typed(self, daemon):
        _, client = daemon
        with pytest.raises(UnknownVerbError):
            client.request("explode")

    def test_submit_requires_tenant(self, daemon):
        _, client = daemon
        with pytest.raises(ProtocolError, match="tenant"):
            client.request("submit", spec={})

    def test_unknown_job_is_typed(self, daemon):
        _, client = daemon
        with pytest.raises(UnknownJobError):
            client.status("job-999999")

    def test_results_before_done_is_typed(self, daemon):
        _, client = daemon
        record = client.submit("alice", dict(TINY, step_sleep_s=0.05))
        with pytest.raises(ResultsNotReadyError):
            client.results(record["job_id"])
        client.wait(record["job_id"])

    def test_garbage_line_gets_error_response(self, daemon):
        instance, _ = daemon
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(5.0)
        sock.connect(str(instance.socket_path))
        sock.sendall(b"not json at all\n")
        reply = json.loads(sock.recv(65536).split(b"\n", 1)[0])
        sock.close()
        assert reply["ok"] is False
        assert reply["error"]["code"] == "protocol_error"

    def test_quota_rejection_travels_the_wire(self, daemon):
        _, client = daemon
        slow = dict(TINY, steps=20, step_sleep_s=0.05)
        for _ in range(5):  # 2 start running, 3 fill alice's queued quota
            client.submit("alice", slow)
        with pytest.raises(QuotaExceededError, match="'alice'"):
            client.submit("alice", slow)
        for record in client.list_jobs(tenant="alice", states=["queued", "running"]):
            try:
                client.cancel(record["job_id"])
            except ServiceError:
                pass

    def test_second_daemon_on_same_spool_refuses(self, daemon):
        instance, _ = daemon
        clone = ServiceDaemon(DaemonConfig(spool=instance.spool))
        with pytest.raises(ServiceError, match="already serving"):
            clone.serve()


class TestEndToEnd:
    def test_job_results_match_one_shot_run(self, daemon):
        _, client = daemon
        record = client.submit("alice", TINY)
        payload = client.wait_results(record["job_id"], timeout=120.0)
        reference = one_shot_payload(JobSpec(**TINY), backend="serial")
        assert payload == reference  # bit-identical, fingerprint included
        assert payload["fingerprint"] == reference["fingerprint"]

    def test_jobs_are_isolated_per_run_dir(self, daemon):
        instance, client = daemon
        a = client.submit("alice", TINY)
        b = client.submit("bob", dict(TINY, seed=8))
        client.wait(a["job_id"])
        client.wait(b["job_id"])
        for job in (a, b):
            run_dir = instance.queue.run_dir(job["job_id"])
            assert (run_dir / "results.json").exists()
            assert any((run_dir / "checkpoints").glob("snap-*"))
            # Each job has its own telemetry stream with its own events.
            assert any((run_dir / "telemetry" / "events").glob("events-*.jsonl"))
        assert client.results(a["job_id"]) != client.results(b["job_id"])

    def test_cancel_running_job_parks_cancelled(self, daemon):
        _, client = daemon
        record = client.submit("alice", {"steps": 50, "step_sleep_s": 0.05})
        job_id = record["job_id"]
        deadline = time.monotonic() + 30.0
        while client.status(job_id)["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        client.cancel(job_id)
        final = client.wait(job_id)
        assert final["state"] == "cancelled"
        assert final["progress"] < 50


class TestOneJobPath:
    """A daemon job computes serially in a process forked for it, whatever
    ``$REPRO_BACKEND`` says."""

    @pytest.mark.parametrize("remote", ["processes", "distributed"])
    def test_run_job_computes_serially_under_a_remote_repro_backend(
        self, tmp_path, monkeypatch, remote
    ):
        shutdown_pools()
        monkeypatch.setenv("REPRO_BACKEND", remote)
        try:
            payload = run_job(SimpleNamespace(spec=TINY), tmp_path / "run")
            assert not backends._POOLS  # no worker cluster was started
        finally:
            shutdown_pools()
        assert payload == one_shot_payload(JobSpec(**TINY), backend="serial")

    @pytest.mark.parametrize("remote", ["processes", "distributed"])
    def test_run_job_in_process_always_forks(self, tmp_path, monkeypatch, remote):
        shutdown_pools()
        monkeypatch.setenv("REPRO_BACKEND", remote)
        pid_file = tmp_path / "pid"
        record = SimpleNamespace(job_id="job-000000", spec=dict(TINY, step_sleep_s=0.001))
        try:
            run_job_in_process(
                record, tmp_path / "run",
                sleep_fn=lambda seconds: pid_file.write_text(str(os.getpid())),
            )
            assert not backends._POOLS
        finally:
            shutdown_pools()
        assert int(pid_file.read_text()) != os.getpid()  # the step ran in a child


def start_daemon_subprocess(spool, max_concurrent=1, own_group=False, backend=None):
    """A ``repro serve`` child; ``own_group`` makes it lead a process
    group of its own, as a shell's foreground job does.  ``backend`` is
    its ``$REPRO_BACKEND`` (default: unset)."""
    env = dict(os.environ, PYTHONPATH=str(
        os.path.join(os.path.dirname(__file__), os.pardir, "src")
    ))
    env.pop("REPRO_BACKEND", None)  # a remote one is refused
    if backend is not None:
        env["REPRO_BACKEND"] = backend
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--spool", str(spool),
            "--max-concurrent", str(max_concurrent),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=own_group,
    )


def child_pids(pid):
    """Running children of ``pid`` (zombies left out), read from /proc."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state, parent = handle.read().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue  # exited while we listed it
        if int(parent) == pid and state != "Z":
            children.append(int(entry))
    return children


def running(pid):
    """Whether ``pid`` is a live process that is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def open_files(pid):
    """What ``pid`` holds open: paths, and sockets as ``socket:[inode]``."""
    held = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            held.add(os.readlink(f"/proc/{pid}/fd/{fd}"))
        except OSError:
            continue
    return held


def socket_inodes(pid):
    """The sockets ``pid`` holds open, as ``socket:[inode]`` links."""
    return {target for target in open_files(pid) if target.startswith("socket:")}


def stop_daemon(proc):
    """Drain-free teardown: SIGKILL if still up, then reap."""
    if proc.poll() is None:
        proc.kill()
    proc.communicate(timeout=30.0)


proc_only = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="reads process tables from /proc"
)


class TestDaemonSubprocess:
    def test_serve_smoke(self, tmp_path):
        """CI smoke: serve, submit, poll to done, fetch results, drain."""
        spool = tmp_path / "spool"
        proc = start_daemon_subprocess(spool)
        try:
            client = ServiceClient(spool / "daemon.sock")
            client.wait_ready(timeout=30.0)
            record = client.submit("smoke", TINY)
            payload = client.wait_results(record["job_id"], timeout=120.0)
            assert payload["fingerprint"] == one_shot_payload(
                JobSpec(**TINY), backend="serial"
            )["fingerprint"]
            client.drain()
            out, err = proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "drained" in out
        assert not (spool / "daemon.sock").exists()  # clean shutdown

    @pytest.mark.parametrize("interrupt", ["sigterm", "ctrl_c_to_the_group"])
    def test_sigterm_drains_and_requeues(self, tmp_path, interrupt):
        """SIGTERM to the daemon, or SIGINT to its whole process group (a
        Ctrl-C, which its job processes receive too), drains: the running
        job parks ``queued``, not ``failed``."""
        spool = tmp_path / "spool"
        proc = start_daemon_subprocess(spool, own_group=interrupt != "sigterm")
        try:
            client = ServiceClient(spool / "daemon.sock")
            client.wait_ready(timeout=30.0)
            record = client.submit("alice", {"steps": 60, "step_sleep_s": 0.1})
            deadline = time.monotonic() + 30.0
            while client.status(record["job_id"])["progress"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            if interrupt == "sigterm":
                proc.send_signal(signal.SIGTERM)
            else:
                os.killpg(proc.pid, signal.SIGINT)
            _out, err = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        on_disk = json.loads(
            (spool / "jobs" / f"{record['job_id']}.json").read_text()
        )
        # Parked at a step boundary, back in line for the next daemon.
        assert on_disk["state"] == "queued", on_disk.get("error")
        assert on_disk["progress"] >= 1

    @proc_only
    def test_job_process_leaves_no_orphan_after_daemon_sigkill(self, tmp_path):
        """A SIGKILLed daemon's job process exits on its own (EOF on its
        link) before a restarted daemon resumes the job, which then ends
        bit-identical to a one-shot run.  The kill lands early in the
        job's last step: a process that lived on, even only to the end of
        that step, would write ``results.json``."""
        spool = tmp_path / "spool"
        spec = {"steps": 2, "seed": 4, "step_sleep_s": 2.0}
        proc = start_daemon_subprocess(spool)
        try:
            client = ServiceClient(spool / "daemon.sock")
            client.wait_ready(timeout=30.0)
            job_id = client.submit("alice", spec)["job_id"]
            wait_until(lambda: client.status(job_id)["progress"] >= 1, timeout=60.0)
            (job_pid,) = child_pids(proc.pid)
            proc.kill()
            killed_at = time.monotonic()
            wait_until(lambda: not running(job_pid), timeout=5.0)
            assert time.monotonic() - killed_at < 5.0
        finally:
            stop_daemon(proc)
        # it exited mid-run: it did not finish the job on its own
        assert not (spool / "runs" / job_id / "results.json").exists()

        restarted = start_daemon_subprocess(spool)
        try:
            client = ServiceClient(spool / "daemon.sock")
            client.wait_ready(timeout=30.0)
            payload = client.wait_results(job_id, timeout=120.0)
            assert client.status(job_id)["recoveries"] == 1
            client.drain()
            restarted.communicate(timeout=30.0)
        finally:
            stop_daemon(restarted)
        assert payload == one_shot_payload(JobSpec(**spec), backend="serial")

    @proc_only
    def test_job_process_killed_fails_only_its_job(self, tmp_path):
        """SIGKILL one job's process: that job is ``failed`` with an error
        naming the signal, the daemon still answers, and a concurrent job
        finishes ``done`` with its one-shot fingerprint."""
        spool = tmp_path / "spool"
        victim_spec = {"steps": 60, "seed": 1, "step_sleep_s": 0.1}
        other_spec = {"steps": 8, "seed": 6, "step_sleep_s": 0.1}
        proc = start_daemon_subprocess(spool, max_concurrent=2)
        try:
            client = ServiceClient(spool / "daemon.sock")
            client.wait_ready(timeout=30.0)
            victim = client.submit("alice", victim_spec)["job_id"]
            wait_until(lambda: client.status(victim)["progress"] >= 1, timeout=60.0)
            (victim_pid,) = child_pids(proc.pid)
            other = client.submit("bob", other_spec)["job_id"]
            wait_until(lambda: client.status(other)["progress"] >= 1, timeout=60.0)
            os.kill(victim_pid, signal.SIGKILL)
            failed = client.wait(victim, timeout=30.0)
            assert client.ping()["pid"] == proc.pid
            payload = client.wait_results(other, timeout=120.0)
            client.drain()
            _out, err = proc.communicate(timeout=30.0)
        finally:
            stop_daemon(proc)
        assert proc.returncode == 0, err
        assert failed["state"] == "failed"
        assert "SIGKILL" in failed["error"]
        reference = one_shot_payload(JobSpec(**other_spec), backend="serial")
        assert payload["fingerprint"] == reference["fingerprint"]

    @proc_only
    def test_job_process_ignores_signals(self, tmp_path):
        """A job's process takes its stop from the daemon only: SIGINT and
        SIGTERM sent straight to it, twice each, change nothing."""
        spool = tmp_path / "spool"
        spec = {"steps": 10, "seed": 2, "step_sleep_s": 0.1}
        proc = start_daemon_subprocess(spool)
        try:
            client = ServiceClient(spool / "daemon.sock")
            client.wait_ready(timeout=30.0)
            job_id = client.submit("alice", spec)["job_id"]
            wait_until(lambda: client.status(job_id)["progress"] >= 1, timeout=60.0)
            (job_pid,) = child_pids(proc.pid)
            for sig in (signal.SIGINT, signal.SIGTERM) * 2:
                os.kill(job_pid, sig)
                time.sleep(0.05)
            final = client.wait(job_id, timeout=60.0)
            payload = client.results(job_id) if final["state"] == "done" else None
            client.drain()
            proc.communicate(timeout=30.0)
        finally:
            stop_daemon(proc)
        assert final["state"] == "done", final.get("error")
        assert payload == one_shot_payload(JobSpec(**spec), backend="serial")

    @proc_only
    def test_job_processes_hold_no_daemon_socket(self, tmp_path):
        """With two jobs running, neither job's process holds a socket the
        daemon holds: not the listener, not a client connection (one is
        left open across both forks), not the other job's link; nor the
        spool lock, which an orphan would hold past the daemon's death."""
        spool = tmp_path / "spool"
        proc = start_daemon_subprocess(spool, max_concurrent=2)
        idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            client = ServiceClient(spool / "daemon.sock")
            client.wait_ready(timeout=30.0)
            idle.connect(str(spool / "daemon.sock"))
            jobs = [
                client.submit(tenant, {"steps": 40, "seed": 3, "step_sleep_s": 0.1})["job_id"]
                for tenant in ("alice", "bob")
            ]
            wait_until(
                lambda: all(client.status(job)["progress"] >= 1 for job in jobs), timeout=60.0
            )
            job_pids = child_pids(proc.pid)
            assert len(job_pids) == 2
            daemon_sockets = socket_inodes(proc.pid)
            # the listener, the idle connection and both jobs' links
            assert len(daemon_sockets) >= 4
            lock = os.path.realpath(spool / "daemon.lock")
            assert lock in open_files(proc.pid)
            for pid in job_pids:
                assert socket_inodes(pid) & daemon_sockets == set()
                assert lock not in open_files(pid)
            client.drain()
            proc.communicate(timeout=60.0)
        finally:
            idle.close()
            stop_daemon(proc)

    def test_daemon_lock_keeps_a_second_daemon_off_a_live_spool(self, tmp_path):
        """A second ``repro serve`` on a served spool exits 1 with one
        error line, before it reads or writes the spool: the running
        job's record is byte-equal before and after, and the first
        daemon still serves."""
        spool = tmp_path / "spool"
        proc = start_daemon_subprocess(spool)
        try:
            client = ServiceClient(spool / "daemon.sock")
            client.wait_ready(timeout=30.0)
            # no snapshot while the second daemon runs: the record holds still
            spec = {"steps": 400, "seed": 1, "step_sleep_s": 0.05, "checkpoint_every": 400}
            job_id = client.submit("alice", spec)["job_id"]
            wait_until(lambda: client.status(job_id)["progress"] >= 1, timeout=60.0)
            record = spool / "jobs" / f"{job_id}.json"
            before = record.read_bytes()
            second = start_daemon_subprocess(spool)
            _out, err = second.communicate(timeout=60.0)
            assert record.read_bytes() == before
            assert second.returncode == 1
            assert err == f"error: another daemon is already serving {spool}\n"  # no banner
            assert json.loads(before)["state"] == "running"
            assert client.ping()["pid"] == proc.pid
            assert client.status(job_id)["state"] == "running"
            client.cancel(job_id)
            client.drain()
            proc.communicate(timeout=60.0)
        finally:
            stop_daemon(proc)
        assert proc.returncode == 0

    @pytest.mark.parametrize("backend, error", [
        ("processes", "$REPRO_BACKEND=processes is refused: a daemon runs each "
                      "job serially in a process of its own"),
        ("distributed", "$REPRO_BACKEND=distributed is refused: a daemon runs each "
                        "job serially in a process of its own"),
        ("threads", "ValueError: unknown execution backend 'threads' (from "
                    "$REPRO_BACKEND); expected one of ('serial', 'processes', "
                    "'distributed')"),
    ], ids=["processes", "distributed", "threads"])
    def test_a_remote_backend_is_refused_before_the_spool_lock(
        self, tmp_path, backend, error
    ):
        """``REPRO_BACKEND=processes repro serve`` exits 1 with one error
        line naming the variable, as a second daemon does: every job
        computes serially in a process of its own.  It takes no spool
        lock and writes no job record.  A name no backend has is refused
        the same way, not left to fail every job."""
        spool = tmp_path / "spool"
        proc = start_daemon_subprocess(spool, backend=backend)
        try:
            out, err = proc.communicate(timeout=30.0)
        finally:
            stop_daemon(proc)
        assert proc.returncode == 1
        assert out == ""
        assert err == f"error: {error}\n"  # no banner
        assert not (spool / "daemon.lock").exists()
        assert not list(spool.glob("jobs/*.json"))

    def test_a_serial_repro_backend_is_served(self, tmp_path):
        """Only a remote ``$REPRO_BACKEND`` is refused: ``serial``, the
        backend every job computes on anyway, is served."""
        spool = tmp_path / "spool"
        proc = start_daemon_subprocess(spool, backend="serial")
        try:
            client = ServiceClient(spool / "daemon.sock")
            client.wait_ready(timeout=30.0)
            record = client.submit("alice", TINY)
            payload = client.wait_results(record["job_id"], timeout=120.0)
            client.drain()
            proc.communicate(timeout=30.0)
        finally:
            stop_daemon(proc)
        assert proc.returncode == 0
        assert payload == one_shot_payload(JobSpec(**TINY), backend="serial")

    def test_daemon_lock_two_daemons_started_at_once_one_serves(self, tmp_path):
        """Two daemons started together on one fresh spool: exactly one
        serves, the other exits 1 with one error line."""
        spool = tmp_path / "spool"
        procs = [start_daemon_subprocess(spool) for _ in range(2)]
        try:
            client = ServiceClient(spool / "daemon.sock")
            client.wait_ready(timeout=30.0)
            server = next(proc for proc in procs if proc.pid == client.ping()["pid"])
            (loser,) = [proc for proc in procs if proc is not server]
            _out, err = loser.communicate(timeout=60.0)
            assert loser.returncode == 1
            assert err == f"error: another daemon is already serving {spool}\n"  # no banner
            assert client.wait(client.submit("alice", TINY)["job_id"])["state"] == "done"
            client.drain()
            server.communicate(timeout=60.0)
            assert server.returncode == 0
        finally:
            for proc in procs:
                stop_daemon(proc)

    def test_sigkill_durability_bit_identical(self, tmp_path):
        """The acceptance criterion: SIGKILL with a running job and two
        queued ones, a job of each kind; a restarted daemon finishes all
        three; results are bit-identical to uninterrupted one-shot runs."""
        spool = tmp_path / "spool"
        artifact = tmp_path / "artifact"
        run_spec(JobSpec(kind="elastic_train", steps=4), artifact_dir=artifact)
        slow = {
            "kind": "specialize", "steps": 6, "seed": 5, "step_sleep_s": 0.25,
            "checkpoint_every": 1, "artifact": str(artifact), "platform": "tpu_v4",
        }
        fast = [{"steps": 3, "seed": 9}, {"kind": "elastic_train", "steps": 3, "seed": 2}]
        proc = start_daemon_subprocess(spool, max_concurrent=1)
        try:
            client = ServiceClient(spool / "daemon.sock")
            client.wait_ready(timeout=30.0)
            running = client.submit("alice", slow)
            queued = [client.submit("alice", spec) for spec in fast]
            # Let the first job make real progress (checkpoints on disk),
            # while the others sit queued behind max_concurrent=1.
            deadline = time.monotonic() + 60.0
            while client.status(running["job_id"])["progress"] < 2:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert [client.status(job["job_id"])["state"] for job in queued] == ["queued"] * 2
            proc.kill()  # SIGKILL: no drain, no cleanup
            proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        mid = json.loads((spool / "jobs" / f"{running['job_id']}.json").read_text())
        assert mid["state"] == "running"  # died without transitioning

        restarted = start_daemon_subprocess(spool, max_concurrent=1)
        try:
            client = ServiceClient(spool / "daemon.sock")
            client.wait_ready(timeout=30.0)
            got_running = client.wait_results(running["job_id"], timeout=120.0)
            got_queued = [client.wait_results(job["job_id"], timeout=120.0) for job in queued]
            after = client.status(running["job_id"])
            assert after["recoveries"] == 1
            client.drain()
            restarted.communicate(timeout=30.0)
        finally:
            if restarted.poll() is None:
                restarted.kill()
                restarted.communicate()
        assert got_running == one_shot_payload(JobSpec(**slow), backend="serial")
        assert got_queued == [one_shot_payload(JobSpec(**spec), backend="serial") for spec in fast]
        # the elastic_train job's artifact sits in its run directory
        trained = load_elastic_artifact(spool / "runs" / queued[1]["job_id"] / "artifact")
        assert trained.trained_steps == 3

    def test_sigkill_mid_interval_leaves_progress_at_a_snapshot(self, tmp_path):
        """Between snapshots ``status`` runs ahead of the spool: what a
        SIGKILL leaves on disk is the progress of a snapshot that exists,
        never more than the restarted job resumes from."""
        from repro.runtime import CheckpointStore
        from repro.telemetry import read_events

        spool = tmp_path / "spool"
        spec = {"steps": 14, "seed": 5, "step_sleep_s": 0.1, "checkpoint_every": 5}
        proc = start_daemon_subprocess(spool)
        try:
            client = ServiceClient(spool / "daemon.sock")
            client.wait_ready(timeout=30.0)
            job_id = client.submit("alice", spec)["job_id"]
            deadline = time.monotonic() + 60.0
            while (live := client.status(job_id)["progress"]) < 6:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            proc.kill()
            proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        on_disk = json.loads((spool / "jobs" / f"{job_id}.json").read_text())
        store = CheckpointStore(spool / "runs" / job_id / "checkpoints")
        assert on_disk["state"] == "running"
        assert on_disk["progress"] == 5 < live
        assert on_disk["progress"] in [info.step for info in store.snapshots()]

        restarted = start_daemon_subprocess(spool)
        try:
            client = ServiceClient(spool / "daemon.sock")
            client.wait_ready(timeout=30.0)
            payload = client.wait_results(job_id, timeout=120.0)
            client.drain()
            restarted.communicate(timeout=30.0)
        finally:
            if restarted.poll() is None:
                restarted.kill()
                restarted.communicate()
        resumed = [
            event["step"]
            for event in read_events(spool / "runs" / job_id / "telemetry" / "events")
            if event["kind"] == "recovery.resumed"
        ]
        assert resumed == [5] and on_disk["progress"] <= resumed[0]
        assert payload == one_shot_payload(JobSpec(**spec), backend="serial")
