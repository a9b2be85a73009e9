"""Service scheduling benchmark: concurrency without interference.

The daemon's value proposition is multiplexing N tenants' searches
over one daemon without serializing them end-to-end and without
perturbing any of them.  This benchmark checks both halves of that:

* **Overlap contract:** four concurrent tiny jobs finish within 1.5x
  the wall clock of the *slowest of them run alone* on the same daemon.
  The jobs are step_sleep-dominated (modeling the attached-device waits
  of a real search step), which is exactly the regime the scheduler's
  process-per-job design must overlap.
* **Isolation contract:** every job's results payload — fingerprint
  included — is bit-identical to a one-shot run of the same spec
  (``one_shot_payload``, the same reference the durability tests use).
  Concurrency changes wall-clock, never numerics.
"""

from __future__ import annotations

import tempfile
import threading
import time

import pytest

from repro.analysis import format_table
from repro.service import (
    DaemonConfig,
    JobSpec,
    SchedulerConfig,
    ServiceClient,
    ServiceDaemon,
    one_shot_payload,
)

from .common import emit, emit_json

pytestmark = pytest.mark.slow

JOBS = 4
STEPS = 8
STEP_SLEEP_S = 0.25
CHECKPOINT_EVERY = 4
MAX_SLOWDOWN = 1.5


def job_spec(seed: int) -> dict:
    return {
        "steps": STEPS,
        "seed": seed,
        "step_sleep_s": STEP_SLEEP_S,
        "checkpoint_every": CHECKPOINT_EVERY,
    }


def start_daemon(spool):
    daemon = ServiceDaemon(
        DaemonConfig(
            spool=spool,
            scheduler=SchedulerConfig(
                max_concurrent=JOBS,
                tenant_max_running=JOBS,
                poll_interval_s=0.005,
            ),
            accept_timeout_s=0.05,
        )
    )
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    client = ServiceClient(daemon.socket_path, timeout=60.0)
    client.wait_ready(timeout=30.0)
    return daemon, thread, client


def run():
    spool = tempfile.mkdtemp(prefix="bench-service-")
    daemon, thread, client = start_daemon(spool)
    try:
        references = {
            seed: one_shot_payload(JobSpec(**job_spec(seed)), backend="serial")
            for seed in range(JOBS)
        }

        # Solo baseline: each job alone on the daemon (queue, checkpoint
        # and telemetry overhead included, nothing to contend with).
        solo_seconds = {}
        for seed in range(JOBS):
            started = time.perf_counter()
            record = client.submit("solo", job_spec(seed))
            payload = client.wait_results(record["job_id"], timeout=120.0)
            solo_seconds[seed] = time.perf_counter() - started
            assert payload == references[seed], f"solo seed {seed} diverged"

        # Concurrent: all four at once, one tenant each.
        started = time.perf_counter()
        submitted = {
            seed: client.submit(f"tenant-{seed}", job_spec(seed))["job_id"]
            for seed in range(JOBS)
        }
        identical = True
        for seed, job_id in submitted.items():
            payload = client.wait_results(job_id, timeout=120.0)
            identical = identical and payload == references[seed]
        concurrent_seconds = time.perf_counter() - started
    finally:
        client.drain()
        thread.join(timeout=60.0)

    slowest_solo = max(solo_seconds.values())
    payload = {
        "jobs": JOBS,
        "steps": STEPS,
        "step_sleep_s": STEP_SLEEP_S,
        "solo_seconds": {str(k): v for k, v in solo_seconds.items()},
        "slowest_solo_seconds": slowest_solo,
        "concurrent_seconds": concurrent_seconds,
        "slowdown": concurrent_seconds / max(slowest_solo, 1e-12),
        "max_slowdown": MAX_SLOWDOWN,
        "results_identical": identical,
    }
    table = format_table(
        ["run", "wall (s)", "vs slowest solo"],
        [
            ["slowest solo", f"{slowest_solo:.2f}", "1.0x"],
            [
                f"{JOBS} concurrent",
                f"{concurrent_seconds:.2f}",
                f"{payload['slowdown']:.2f}x",
            ],
        ],
    )
    emit("service", table)
    emit_json("service", payload)
    return payload


def test_service_concurrency(benchmark):
    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    assert payload["results_identical"], "concurrency changed job results"
    # Acceptance: scheduling four jobs together costs <= 1.5x the
    # slowest job's solo wall clock — overlap, not serialization.
    assert payload["slowdown"] <= MAX_SLOWDOWN, (
        f"4 concurrent jobs took {payload['slowdown']:.2f}x the slowest "
        f"solo run (limit {MAX_SLOWDOWN}x)"
    )
