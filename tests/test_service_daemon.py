"""Daemon tests: wire protocol, end-to-end jobs, kill-the-daemon durability.

The load-bearing acceptance test lives here: SIGKILL a daemon with one
job running and one queued, restart it over the same spool, and both
jobs must reach ``done`` with results bit-identical to uninterrupted
one-shot runs of the same specs (the same fingerprint contract the
crash/resume tests established for the supervisor).

Daemon subprocesses pin ``--backend serial``: the CI matrix re-runs
this file under threads/processes backends, and results are
backend-invariant anyway (``test_backends.py`` proves that), so the
service tests need not fork pools from a threaded daemon.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.service import (
    DaemonConfig,
    JobSpec,
    SchedulerConfig,
    ServiceClient,
    ServiceDaemon,
    one_shot_payload,
)
from repro.service.protocol import (
    ProtocolError,
    QuotaExceededError,
    ResultsNotReadyError,
    ServiceError,
    UnknownJobError,
    UnknownVerbError,
)

TINY = {"steps": 3, "seed": 7}


@pytest.fixture()
def daemon(tmp_path):
    """An in-process daemon on a background thread, drained at teardown."""
    config = DaemonConfig(
        spool=tmp_path / "spool",
        scheduler=SchedulerConfig(
            max_concurrent=2,
            tenant_max_queued=3,
            poll_interval_s=0.005,
            backend="serial",
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

    def test_second_daemon_on_same_socket_refuses(self, daemon):
        instance, _ = daemon
        clone = ServiceDaemon(
            DaemonConfig(spool=instance.spool, scheduler=SchedulerConfig(backend="serial"))
        )
        with pytest.raises(ServiceError, match="already listening"):
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


def start_daemon_subprocess(spool, max_concurrent=1):
    env = dict(os.environ, PYTHONPATH=str(
        os.path.join(os.path.dirname(__file__), os.pardir, "src")
    ))
    env.pop("REPRO_BACKEND", None)  # daemon flags pin serial explicitly
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--spool", str(spool),
            "--backend", "serial",
            "--max-concurrent", str(max_concurrent),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
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

    def test_sigterm_drains_and_requeues(self, tmp_path):
        spool = tmp_path / "spool"
        proc = start_daemon_subprocess(spool)
        try:
            client = ServiceClient(spool / "daemon.sock")
            client.wait_ready(timeout=30.0)
            record = client.submit("alice", {"steps": 60, "step_sleep_s": 0.1})
            deadline = time.monotonic() + 30.0
            while client.status(record["job_id"])["progress"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
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
        assert on_disk["state"] == "queued"
        assert on_disk["progress"] >= 1

    def test_sigkill_durability_bit_identical(self, tmp_path):
        """The acceptance criterion: SIGKILL with a running and a queued
        job; a restarted daemon finishes both; results are bit-identical
        to uninterrupted one-shot runs."""
        spool = tmp_path / "spool"
        slow = {"steps": 6, "seed": 5, "step_sleep_s": 0.25, "checkpoint_every": 1}
        fast = {"steps": 3, "seed": 9}
        proc = start_daemon_subprocess(spool, max_concurrent=1)
        try:
            client = ServiceClient(spool / "daemon.sock")
            client.wait_ready(timeout=30.0)
            running = client.submit("alice", slow)
            queued = client.submit("alice", fast)
            # Let the first job make real progress (checkpoints on disk),
            # while the second sits queued behind max_concurrent=1.
            deadline = time.monotonic() + 60.0
            while client.status(running["job_id"])["progress"] < 2:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert client.status(queued["job_id"])["state"] == "queued"
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
            got_queued = client.wait_results(queued["job_id"], timeout=120.0)
            after = client.status(running["job_id"])
            assert after["recoveries"] == 1
            client.drain()
            restarted.communicate(timeout=30.0)
        finally:
            if restarted.poll() is None:
                restarted.kill()
                restarted.communicate()
        assert got_running == one_shot_payload(JobSpec(**slow), backend="serial")
        assert got_queued == one_shot_payload(JobSpec(**fast), backend="serial")

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
