"""The compute turn: job threads step one at a time, in the order they asked.

``run_with_checkpoints`` brackets ``search.step`` — and only that — with
the process-wide ``COMPUTE_TURN``.  These tests pin what the daemon's
throughput rests on: no two steps overlap, a short job is never starved
by a long one, everything *outside* the step still overlaps, a crashing
step gives the turn back, and a worker process forked while the turn is
held is unaffected (workers never take it).
"""

import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.engine import ExecutionBackend, process_start_method, shutdown_pools
from repro.runtime import (
    FaultInjector,
    FaultSpec,
    InjectedCrash,
    run_with_checkpoints,
)
from repro.runtime.supervisor import COMPUTE_TURN
from repro.service.jobs import run_job
from repro.telemetry import Telemetry
from repro.telemetry.report import render_report

from .test_backends import stage_map
from .test_service_scheduler import wait_until
from .test_sweep import build_single

JOIN_S = 60.0


class StubSearch:
    """The stepwise protocol with a step that *sleeps* (GIL released:
    without the turn, two of these would overlap freely) or, ``spin``,
    holds the interpreter the way a step of small numpy calls does."""

    def __init__(self, name, steps, trace, step_s=0.002, spin=False, telemetry=None):
        self.name = name
        self.config = SimpleNamespace(steps=steps)
        self.trace = trace
        self.step_s = step_s
        self.spin = spin
        self.telemetry = telemetry

    def step(self, index):
        self.trace.enter(self.name)
        if self.spin:
            until = time.perf_counter() + self.step_s
            while time.perf_counter() < until:
                pass
        else:
            time.sleep(self.step_s)
        self.trace.leave()
        return index

    def build_result(self, history):
        return list(history)


class Trace:
    """Who stepped, in order, and whether two were ever inside at once."""

    def __init__(self):
        self._lock = threading.Lock()
        self._inside = 0
        self.order = []
        self.overlapped = False

    def enter(self, name):
        with self._lock:
            self._inside += 1
            self.overlapped |= self._inside > 1
            self.order.append(name)

    def leave(self):
        with self._lock:
            self._inside -= 1

    def count(self, name):
        with self._lock:
            return self.order.count(name)


def start(target, *args, **kwargs):
    thread = threading.Thread(target=target, args=args, kwargs=kwargs, daemon=True)
    thread.start()
    return thread


def join_all(*threads):
    for thread in threads:
        thread.join(JOIN_S)
        assert not thread.is_alive()


def wait_for_waiters(count):
    wait_until(lambda: len(COMPUTE_TURN._waiters) >= count, poll_s=0.001)


@pytest.fixture(autouse=True)
def turn_is_free_afterwards():
    yield
    assert not COMPUTE_TURN._held and not COMPUTE_TURN._waiters


def test_turn_excludes_under_stress():
    """More threads than cores, a switch every 10 us and an invited one
    inside the critical section: a turn that ever admitted two would
    lose an update."""
    total = [0]

    def worker():
        for _ in range(200):
            with COMPUTE_TURN:
                seen = total[0]
                time.sleep(0)
                total[0] = seen + 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        join_all(*[start(worker) for _ in range(6)])
    finally:
        sys.setswitchinterval(interval)
    assert total[0] == 6 * 200


def test_steps_never_overlap_and_alternate_strictly():
    trace = Trace()
    with COMPUTE_TURN:  # line both jobs up behind the test, a first
        a = start(run_with_checkpoints, StubSearch("a", 12, trace))
        wait_for_waiters(1)
        b = start(run_with_checkpoints, StubSearch("b", 8, trace))
        wait_for_waiters(2)
    join_all(a, b)
    assert not trace.overlapped
    assert trace.order == ["a", "b"] * 8 + ["a"] * 4


def test_short_job_is_not_starved_by_a_long_one():
    """Nothing but the turn ever makes the long job wait (no I/O, no
    callback), and its steps hold the interpreter.  By ticket the two
    alternate from the short job's first step to its last; a lock the
    releasing thread may take straight back lets the long job barge in
    for step after step."""
    trace = Trace()
    long_job = start(
        run_with_checkpoints, StubSearch("long", 200, trace, step_s=0.001, spin=True)
    )
    wait_until(lambda: trace.count("long") >= 5, poll_s=0.001)
    join_all(
        start(run_with_checkpoints, StubSearch("short", 3, trace, step_s=0.001, spin=True))
    )
    first = trace.order.index("short")
    assert trace.order[first : first + 5] == ["short", "long", "short", "long", "short"]
    join_all(long_job)
    assert trace.count("long") == 200 and not trace.overlapped


def test_crashing_step_releases_the_turn():
    """A mid-shard crash unwinds out of ``search.step`` itself."""
    crashing = build_single("serial")
    injector = FaultInjector([FaultSpec("crash", step=2, phase="mid")])
    injector.arm(crashing, None)
    failures = []

    def crash():
        try:
            run_with_checkpoints(crashing, injector=injector)
        except InjectedCrash as error:
            failures.append(error)

    trace = Trace()
    other = start(run_with_checkpoints, StubSearch("other", 40, trace))
    join_all(start(crash), other)
    assert len(failures) == 1 and [f.step for f in injector.fired] == [2]
    assert trace.count("other") == 40


def test_everything_outside_the_step_still_overlaps(tmp_path):
    """``step_sleep_s`` (an attached-testbed wait) sleeps in ``on_step``:
    four jobs' sleeps run side by side, only their compute takes turns."""
    spec = {"steps": 5, "seed": 11, "step_sleep_s": 0.1}

    def job(name):
        run_job(SimpleNamespace(spec=spec), tmp_path / name, backend="serial")

    started = time.perf_counter()
    job("solo")
    solo_s = time.perf_counter() - started
    started = time.perf_counter()
    join_all(*[start(job, f"job-{i}") for i in range(4)])
    together_s = time.perf_counter() - started
    assert solo_s >= 0.5
    assert together_s < 2.5 * solo_s  # serialized sleeps alone would be 4x


def test_turn_wait_is_in_the_jobs_telemetry_and_its_report(tmp_path):
    trace = Trace()
    telemetry = [Telemetry(tmp_path / name) for name in ("a", "b")]
    with COMPUTE_TURN:
        threads = []
        for index, handle in enumerate(telemetry):
            search = StubSearch(str(index), 6, trace, step_s=0.005, telemetry=handle)
            threads.append(start(run_with_checkpoints, search))
            wait_for_waiters(index + 1)
    join_all(*threads)
    for handle in telemetry:
        waits = handle.histogram("service.turn_wait_seconds").stats()
        # one observation per step; five of them sat out a 5 ms step of
        # the other job (the first only waited for the test to let go)
        assert waits["count"] == 6 and waits["total"] > 5 * 0.004
        handle.close()
        assert "service.turn_wait_seconds  n=6 total=" in render_report(handle.directory)
    alone = Telemetry()
    run_with_checkpoints(StubSearch("alone", 4, trace, telemetry=alone))
    assert alone.histogram("service.turn_wait_seconds").stats()["max"] < 0.01


@pytest.mark.skipif(process_start_method() != "fork", reason="needs fork")
def test_worker_forked_while_the_turn_is_held_still_serves():
    """A job thread spawns its pool from inside a step, so a forked
    worker starts life with a copy of the *held* turn.  It never takes
    it, so it never notices."""
    shutdown_pools()  # the pool is forked below, inside the turn
    backend = ExecutionBackend("processes", 2)
    try:
        with COMPUTE_TURN:
            assert stage_map(backend, range(1, 9)) == [i * i for i in range(1, 9)]
    finally:
        shutdown_pools()
