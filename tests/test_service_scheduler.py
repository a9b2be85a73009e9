"""Scheduler tests: admission control, quotas, concurrency, cancel, drain.

A stub runner stands in for real searches so these tests exercise only
the scheduling layer (fast, deterministic); the end-to-end path with
real searches is covered in ``test_service_daemon.py``.
"""

import json
import threading
import time

import pytest

from repro.runtime.errors import SearchInterrupted
from repro.service.protocol import (
    AdmissionClosedError,
    JobSpecError,
    JobStateError,
    QuotaExceededError,
)
from repro.service.queue import JobQueue
from repro.service.scheduler import JobScheduler, SchedulerConfig


def wait_until(predicate, timeout=10.0, poll_s=0.005):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(poll_s)


class StubRunner:
    """Runner double: blocks each job until the test releases it."""

    def __init__(self, fail_jobs=()):
        self.fail_jobs = set(fail_jobs)
        self.release = threading.Event()
        self.started = []
        self._lock = threading.Lock()

    def __call__(self, record, run_dir, should_stop, on_step, backend=None, workers=None):
        with self._lock:
            self.started.append(record.job_id)
        if record.job_id in self.fail_jobs:
            raise RuntimeError("injected job failure")
        step = 0
        while not self.release.is_set():
            if should_stop():
                raise SearchInterrupted(step=step, checkpoint_written=True)
            time.sleep(0.002)
        on_step(record.spec.get("steps", 1) - 1)
        return {"ok": True}


def running(queue):
    return [record.job_id for record in queue.list() if record.state == "running"]


def make_scheduler(tmp_path, runner, **overrides):
    config = SchedulerConfig(poll_interval_s=0.005, **overrides)
    queue = JobQueue(tmp_path / "spool")
    scheduler = JobScheduler(queue, config, runner=runner)
    return queue, scheduler


class TestAdmission:
    def test_invalid_spec_rejected_before_spool(self, tmp_path):
        queue, scheduler = make_scheduler(tmp_path, StubRunner())
        with pytest.raises(JobSpecError, match="unknown"):
            scheduler.submit("alice", {"bogus_field": 1})
        with pytest.raises(JobSpecError, match="steps"):
            scheduler.submit("alice", {"steps": 0})
        assert queue.list() == []

    @pytest.mark.parametrize(
        "wire, field",
        [
            ('{"cache": "no"}', "cache"),  # a truthy string would mean "on"
            ('{"cache": 0}', "cache"),
            ('{"steps": true}', "steps"),  # bool is an int to isinstance
            ('{"seed": false}', "seed"),
            ('{"step_sleep_s": NaN}', "step_sleep_s"),  # json.loads takes both
            ('{"step_sleep_s": Infinity}', "step_sleep_s"),
            ('{"step_sleep_s": true}', "step_sleep_s"),  # would sleep 1 s a step
            ('{"step_sleep_s": "1"}', "step_sleep_s"),
        ],
    )
    def test_values_of_the_wrong_kind_are_refused_at_submit(self, tmp_path, wire, field):
        queue, scheduler = make_scheduler(tmp_path, StubRunner())
        with pytest.raises(JobSpecError, match=field):
            scheduler.submit("alice", json.loads(wire))
        assert queue.list() == []

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "specialize", "platform": "tpu_v4"}, "needs spec.artifact"),
            ({"kind": "specialize", "artifact": "art", "platform": "hal9000"}, "spec.platform"),
            ({"kind": "specialize", "artifact": "missing", "platform": "v4"}, "spec.artifact"),
            ({"kind": "specialize", "artifact": "torn", "platform": "v4"}, "spec.artifact"),
            ({"kind": "elastic_train", "platform": "tpu_v4"}, "for kind 'specialize'"),
            ({"artifact": "art"}, "for kind 'specialize'"),
            ({"kind": "lm_serving"}, "unknown job kind"),
        ],
    )
    def test_kind_fields_are_checked_at_submit(self, tmp_path, spec, message):
        from repro.service.jobs import JobSpec, run_spec

        run_spec(JobSpec(kind="elastic_train", steps=1), artifact_dir=tmp_path / "art")
        # a manifest of the right format and kind that names nothing else
        (tmp_path / "torn").mkdir()
        (tmp_path / "torn" / "ARTIFACT.json").write_text(
            json.dumps({"format": 1, "kind": "elastic_supernet"})
        )
        queue, scheduler = make_scheduler(tmp_path, StubRunner())
        spec = {k: str(tmp_path / v) if k == "artifact" else v for k, v in spec.items()}
        with pytest.raises(JobSpecError, match=message):
            scheduler.submit("alice", spec)
        assert queue.list() == []
        specialize = {"kind": "specialize", "artifact": str(tmp_path / "art"), "platform": "v4"}
        assert scheduler.submit("alice", specialize).spec.items() >= specialize.items()

    def test_global_queue_depth_enforced(self, tmp_path):
        _, scheduler = make_scheduler(tmp_path, StubRunner(), max_queue_depth=2)
        scheduler.submit("a", {})
        scheduler.submit("b", {})
        with pytest.raises(QuotaExceededError, match="global queue is full"):
            scheduler.submit("c", {})

    def test_tenant_queued_quota_enforced(self, tmp_path):
        _, scheduler = make_scheduler(tmp_path, StubRunner(), tenant_max_queued=2)
        scheduler.submit("alice", {})
        scheduler.submit("alice", {})
        with pytest.raises(QuotaExceededError, match="'alice'"):
            scheduler.submit("alice", {})
        # Another tenant is unaffected by alice's quota.
        assert scheduler.submit("bob", {}).tenant == "bob"

    def test_draining_scheduler_closes_admission(self, tmp_path):
        _, scheduler = make_scheduler(tmp_path, StubRunner())
        scheduler.start()
        scheduler.drain()
        with pytest.raises(AdmissionClosedError):
            scheduler.submit("alice", {})


class TestDispatch:
    def test_concurrency_cap_respected(self, tmp_path):
        runner = StubRunner()
        queue, scheduler = make_scheduler(tmp_path, runner, max_concurrent=2)
        scheduler.start()
        try:
            for _ in range(4):
                scheduler.submit("alice", {}, )
            wait_until(lambda: len(running(queue)) == 2)
            time.sleep(0.05)  # give the dispatcher a chance to overshoot
            assert len(running(queue)) == 2
            assert queue.counts()["queued"] == 2
            runner.release.set()
            wait_until(lambda: queue.counts()["done"] == 4)
            # FIFO: jobs started in submission order.
            assert runner.started == sorted(runner.started)
        finally:
            runner.release.set()
            scheduler.drain()

    def test_tenant_running_quota_admits_other_tenants(self, tmp_path):
        runner = StubRunner()
        queue, scheduler = make_scheduler(
            tmp_path, runner, max_concurrent=4, tenant_max_running=1
        )
        scheduler.start()
        try:
            scheduler.submit("alice", {})
            scheduler.submit("alice", {})  # held back by tenant quota
            scheduler.submit("bob", {})
            wait_until(lambda: len(running(queue)) == 2)
            states = {r.job_id: r.state for r in queue.list()}
            assert states["job-000000"] == "running"
            assert states["job-000001"] == "queued"  # alice at quota
            assert states["job-000002"] == "running"  # bob unaffected
            runner.release.set()
            wait_until(lambda: queue.counts()["done"] == 3)
        finally:
            runner.release.set()
            scheduler.drain()

    def test_failed_job_is_isolated(self, tmp_path):
        runner = StubRunner(fail_jobs={"job-000000"})
        queue, scheduler = make_scheduler(tmp_path, runner)
        scheduler.start()
        try:
            scheduler.submit("alice", {})
            scheduler.submit("alice", {})
            runner.release.set()
            wait_until(
                lambda: queue.counts()["failed"] == 1
                and queue.counts()["done"] == 1
            )
            failed = queue.get("job-000000")
            assert failed.error == "RuntimeError: injected job failure"
            assert queue.get("job-000001").state == "done"
        finally:
            scheduler.drain()


class TestCancelAndDrain:
    def test_cancel_queued_is_immediate(self, tmp_path):
        queue, scheduler = make_scheduler(tmp_path, StubRunner())
        scheduler.submit("alice", {})
        record = scheduler.cancel("job-000000")
        assert record.state == "cancelled"
        assert queue.get("job-000000").state == "cancelled"

    def test_cancel_running_stops_at_step_boundary(self, tmp_path):
        runner = StubRunner()
        queue, scheduler = make_scheduler(tmp_path, runner)
        scheduler.start()
        try:
            scheduler.submit("alice", {})
            wait_until(lambda: running(queue) == ["job-000000"])
            assert scheduler.cancel("job-000000").state == "running"
            wait_until(lambda: queue.get("job-000000").state == "cancelled")
        finally:
            scheduler.drain()

    def test_cancel_terminal_raises(self, tmp_path):
        _, scheduler = make_scheduler(tmp_path, StubRunner())
        scheduler.submit("alice", {})
        scheduler.cancel("job-000000")
        with pytest.raises(JobStateError, match="already cancelled"):
            scheduler.cancel("job-000000")

    def test_drain_requeues_running_jobs(self, tmp_path):
        runner = StubRunner()
        queue, scheduler = make_scheduler(tmp_path, runner)
        scheduler.start()
        scheduler.submit("alice", {})
        wait_until(lambda: runner.started == ["job-000000"])
        interrupted = scheduler.drain()
        assert interrupted == ["job-000000"]
        # The job is parked, not lost: back to queued for the next daemon.
        assert queue.get("job-000000").state == "queued"
        assert scheduler.drain() == []  # idempotent

    def test_drain_while_a_job_is_being_launched(self, tmp_path):
        """A drain that lands between a job's registration and its
        thread's start waits for the start, then parks the job."""
        in_launch = threading.Event()

        class SlowStartTelemetry:
            """Holds the launch in its ``service.job_started`` event long
            enough for a drain to arrive in the window."""

            class _Metric:
                def inc(self, n=1, **labels):
                    pass

                def set(self, value, **labels):
                    pass

            def counter(self, name):
                return self._Metric()

            gauge = counter

            def event(self, kind, **fields):
                if kind == "service.job_started":
                    in_launch.set()
                    time.sleep(0.2)

        runner = StubRunner()
        queue = JobQueue(tmp_path / "spool")
        scheduler = JobScheduler(
            queue,
            SchedulerConfig(poll_interval_s=0.005),
            telemetry=SlowStartTelemetry(),
            runner=runner,
        )
        scheduler.start()
        scheduler.submit("alice", {})
        assert in_launch.wait(10.0)
        assert scheduler.drain() == ["job-000000"]
        assert runner.started == ["job-000000"]
        assert queue.get("job-000000").state == "queued"

    def test_recovery_on_start(self, tmp_path):
        queue = JobQueue(tmp_path / "spool")
        queue.submit("alice", {})
        queue.transition("job-000000", "running")  # a dead daemon's orphan
        runner = StubRunner()
        runner.release.set()
        scheduler = JobScheduler(
            queue, SchedulerConfig(poll_interval_s=0.005), runner=runner
        )
        recovered = scheduler.start()
        try:
            assert [r.job_id for r in recovered] == ["job-000000"]
            wait_until(lambda: queue.get("job-000000").state == "done")
            assert queue.get("job-000000").recoveries == 1
        finally:
            scheduler.drain()


def on_disk(queue, job_id):
    return json.loads((queue.jobs_dir / f"{job_id}.json").read_text())


class TestProgressDurability:
    """Live progress moves every step; the spool gets it when the
    snapshot it describes is written, and exactly at every state edge."""

    def test_live_every_step_durable_on_the_snapshot_cadence(self, tmp_path):
        seen = []

        def runner(record, run_dir, should_stop, on_step, backend=None, workers=None):
            for step in range(record.spec["steps"]):
                on_step(step)
                seen.append(
                    (
                        queue.get(record.job_id).progress,
                        on_disk(queue, record.job_id)["progress"],
                    )
                )
            return {}

        queue, scheduler = make_scheduler(tmp_path, runner)
        scheduler.start()
        try:
            scheduler.submit("alice", {"steps": 9, "checkpoint_every": 3})
            wait_until(lambda: queue.get("job-000000").state == "done")
        finally:
            scheduler.drain()
        # Steps 3 and 6 carry a snapshot; step 9 ends the run, which
        # writes none — the ``done`` edge records it.
        assert seen == [
            (1, 0), (2, 0), (3, 3), (4, 3), (5, 3), (6, 6), (7, 6), (8, 6), (9, 6)
        ]
        final = on_disk(queue, "job-000000")
        assert (final["state"], final["progress"]) == ("done", 9)

    @pytest.mark.parametrize("stop, state", [("cancel", "cancelled"), ("drain", "queued")])
    def test_stop_edges_persist_the_exact_stop_step(self, tmp_path, stop, state):
        stepped = threading.Event()

        def runner(record, run_dir, should_stop, on_step, backend=None, workers=None):
            for step in range(4):
                on_step(step)
            stepped.set()
            while not should_stop():
                time.sleep(0.002)
            raise SearchInterrupted(step=4, checkpoint_written=True)

        queue, scheduler = make_scheduler(tmp_path, runner)
        scheduler.start()
        try:
            scheduler.submit("alice", {"steps": 20, "checkpoint_every": 3})
            assert stepped.wait(10.0)
            assert on_disk(queue, "job-000000")["progress"] == 3
            if stop == "cancel":
                scheduler.cancel("job-000000")
                wait_until(lambda: queue.get("job-000000").state == "cancelled")
        finally:
            scheduler.drain()
        final = on_disk(queue, "job-000000")
        assert (final["state"], final["progress"]) == (state, 4)
