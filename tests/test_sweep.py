"""One seeded differential sweep: every workload, on every backend, through every fault.

The paper's load-bearing claim (Section 4) is that the massively
parallel single-step search behaves as the sequential one does, on any
number of cores and through failures.  Each cell runs one workload on
one execution backend with one fault injected at one step, and checks
it against the unfaulted serial run of the same ``(workload, seed)``,
computed once per module, three ways (:func:`assert_matches_serial`):

* the ``result_payload`` fingerprint;
* the per-step ``mean_quality``;
* a SHA-256 of the final supernet parameters.

The axes:

* workloads — ``single_step`` (the quickstart DLRM search),
  ``tunas``, ``elastic`` (once-for-all training), ``specialize`` (a
  policy-only search against an artifact trained once per module) and
  ``service`` (one job of each kind — ``dlrm_quickstart``,
  ``elastic_train``, ``specialize`` — on one in-process scheduler, so
  on one shared cluster, each checked against ``one_shot_payload``);
* backends — every name in ``BACKEND_NAMES``, always passed explicitly
  (``REPRO_BACKEND`` never decides a cell);
* faults — ``none``; a ``crash`` ``before``, ``mid``-shard or ``after``
  a step; ``corrupt_checkpoint`` (the newest snapshot is damaged, then
  the process crashes, so the restart must fall back past it); and, on
  the remote backends, ``worker_loss``: one spawned worker SIGKILLed or
  one TCP link severed, from the test side, as a map starts (only for
  the workloads that ship stage tasks: ``tunas``, ``specialize``).  Crashes
  go through the ``FaultInjector`` and ``SearchSupervisor`` a deployment
  runs; the service cells run unfaulted;
* seeds — 3, and on ``serial`` also 7.

A cell's id, ``test_cell[elastic-processes-crash_mid-s3]``, replays it:
the fault step is drawn from it.  Tier-1 runs each cell at that one
step; ``pytest -m slow`` runs every faulted cell at every step
(``test_every_step[elastic-processes-crash_mid-s3-k5]``).

The DLRM builders the other backend and crash tests share live here.
"""

import atexit
import functools
import hashlib
import os
import pathlib
import random
import re
import shutil
import signal
import socket
import tempfile
from typing import List, NamedTuple, Optional

import numpy as np
import pytest

from repro.core import (
    PerformanceObjective,
    SearchConfig,
    SingleStepSearch,
    TunasSearch,
    relu_reward,
)
from repro.core.engine import BACKEND_NAMES, run_stage_task, shutdown_pools
from repro.data import CtrTaskConfig, CtrTeacher, SingleStepPipeline, TwoStreamPipeline
from repro.runtime import (
    CheckpointStore,
    FaultInjector,
    FaultSpec,
    SearchSupervisor,
    SupervisorConfig,
    save_elastic_artifact,
)
from repro.searchspace import DlrmSpaceConfig, dlrm_search_space
from repro.service.jobs import (
    JobSpec,
    dlrm_search_builder,
    elastic_training_builder,
    load_results,
    one_shot_payload,
    result_payload,
    specialization_builder,
)
from repro.service.queue import TERMINAL_STATES, JobQueue
from repro.service.scheduler import JobScheduler, SchedulerConfig
from repro.supernet import DlrmSuperNetwork, DlrmSupernetConfig

from .test_service_scheduler import wait_until

# ----------------------------------------------------------------------
# The shared DLRM builders
# ----------------------------------------------------------------------
NUM_TABLES = 2
STEPS = 8


def build_space():
    return dlrm_search_space(DlrmSpaceConfig(num_tables=NUM_TABLES, num_dense_stacks=2))


def capacity_cost(arch):
    cost = 1.0
    for t in range(NUM_TABLES):
        cost += 0.05 * arch[f"emb{t}/width_delta"]
        cost += 0.2 * (arch[f"emb{t}/vocab_scale"] - 1.0)
    for s in range(2):
        cost += 0.04 * arch[f"dense{s}/width_delta"]
    return {"step_time": max(0.1, cost)}


def build_single(backend, seed=0, telemetry=None, workers=None):
    teacher = CtrTeacher(CtrTaskConfig(num_tables=NUM_TABLES, batch_size=16, seed=seed))
    return SingleStepSearch(
        space=build_space(),
        supernet=DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES, seed=seed)),
        pipeline=SingleStepPipeline(teacher.next_batch),
        reward_fn=relu_reward([PerformanceObjective("step_time", 1.0, -0.5)]),
        performance_fn=capacity_cost,
        config=SearchConfig(
            steps=STEPS, num_cores=4, warmup_steps=2, seed=seed,
            backend=backend, workers=workers, telemetry=telemetry,
        ),
    )


def build_tunas(backend, seed=0, telemetry=None, workers=None):
    teacher = CtrTeacher(CtrTaskConfig(num_tables=NUM_TABLES, batch_size=16, seed=seed))
    return TunasSearch(
        space=build_space(),
        supernet=DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES, seed=seed)),
        pipeline=TwoStreamPipeline(teacher.next_batch, train_batches=6, valid_batches=4),
        reward_fn=relu_reward([PerformanceObjective("step_time", 1.0, -0.5)]),
        performance_fn=capacity_cost,
        config=SearchConfig(
            steps=STEPS, num_cores=4, warmup_steps=2, seed=seed,
            backend=backend, workers=workers, telemetry=telemetry,
        ),
    )


BUILDERS = {"single_step": build_single, "tunas": build_tunas}


def assert_results_identical(reference, other, space):
    """Bit-identical SearchResults (stage wall-times excluded)."""
    np.testing.assert_array_equal(reference.rewards(), other.rewards())
    np.testing.assert_array_equal(reference.entropies(), other.entropies())
    assert [s.mean_quality for s in reference.history] == [
        s.mean_quality for s in other.history
    ]
    assert list(space.indices_of(reference.final_architecture)) == list(
        space.indices_of(other.final_architecture)
    )
    assert reference.batches_used == other.batches_used
    assert reference.eval_stats.cache_hits == other.eval_stats.cache_hits
    assert reference.eval_stats.cache_misses == other.eval_stats.cache_misses
    assert reference.eval_stats.evaluations == other.eval_stats.evaluations


# ----------------------------------------------------------------------
# Workloads: (steps, seed, backend) -> (space, fresh-search factory)
# ----------------------------------------------------------------------
WORKERS = 2
SEEDS = (3,)
#: Serial recovery is what every other backend is held to, so serial
#: alone also replays each fault at a second seed (so at a second step).
SERIAL_SEEDS = (3, 7)


def single_step(steps, seed, backend):
    space, factory = dlrm_search_builder(steps, seed, True, backend=backend, workers=WORKERS)
    return space, lambda: factory().search_algorithm


def tunas(steps, seed, backend):
    assert steps == STEPS
    return build_space(), lambda: build_tunas(backend, seed, workers=WORKERS)


def elastic(steps, seed, backend):
    space, _, factory = elastic_training_builder(steps, seed, backend=backend, workers=WORKERS)
    return space, factory


@functools.lru_cache(maxsize=None)
def artifact_dir():
    """The elastic artifact every ``specialize`` cell restores, trained once."""
    directory = pathlib.Path(tempfile.mkdtemp(prefix="sweep-artifact-"))
    atexit.register(shutil.rmtree, directory, True)
    space, schedule, factory = elastic_training_builder(12, 0, backend="serial")
    training = factory()
    training.run()
    save_elastic_artifact(
        directory, training.supernet, space, schedule, trained_steps=12, seed=0
    )
    return directory


def specialize(steps, seed, backend):
    return specialization_builder(
        artifact_dir(), "tpu_v4", steps, seed, backend=backend, workers=WORKERS
    )


def service_specs(steps, seed):
    """One job of each kind, run side by side: the quickstart search, an
    elastic training and a specialization of the module's artifact."""
    return [
        {"steps": steps, "seed": seed, "checkpoint_every": 2},
        {"kind": "elastic_train", "steps": steps, "seed": seed + 1, "checkpoint_every": 2},
        {
            "kind": "specialize", "steps": steps, "seed": seed + 2, "checkpoint_every": 2,
            "artifact": str(artifact_dir()), "platform": "tpu_v4",
        },
    ]


#: workload -> (steps, builder); ``service`` submits jobs instead
WORKLOADS = {
    "single_step": (12, single_step),
    "tunas": (STEPS, tunas),
    "elastic": (12, elastic),
    "specialize": (8, specialize),
    "service": (6, None),
}

FAULTS = ("none", "crash_before", "crash_mid", "crash_after", "corrupt_checkpoint", "worker_loss")
REMOTE = ("processes", "distributed")
#: Workloads that train on every shard they score: every step computes
#: in the engine's process on every backend, so they ship no stage task
#: and have no worker to lose.
SHIPS_NOTHING = ("single_step", "elastic")
#: steps between the snapshots of a cell's run
CHECKPOINT_EVERY = 2


def fault_specs(fault, step):
    """What the injector fires; ``worker_loss`` is the test's own doing."""
    if fault.startswith("crash_"):
        return [FaultSpec("crash", step, phase=fault[len("crash_"):])]
    if fault == "corrupt_checkpoint":
        return [FaultSpec("corrupt_checkpoint", step), FaultSpec("crash", step)]
    return []


def fault_steps(workload, fault):
    """The steps a fault may land on.  A damaged snapshot is only
    survivable with an older one to fall back to (with none left,
    recovery refuses loudly), so that fault starts at the second."""
    first = 2 * CHECKPOINT_EVERY if fault == "corrupt_checkpoint" else 0
    return range(first, WORKLOADS[workload][0])


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
class Outcome(NamedTuple):
    fingerprint: object
    qualities: Optional[List[float]]
    digest: Optional[str]


def params_digest(supernet):
    digest = hashlib.sha256()
    for parameter in supernet.parameters():
        digest.update(np.ascontiguousarray(parameter.data).tobytes())
    return digest.hexdigest()


def outcome_of(space, result, supernet):
    return Outcome(
        result_payload(space, result)["fingerprint"],
        [record.mean_quality for record in result.history],
        params_digest(supernet),
    )


@functools.lru_cache(maxsize=None)
def reference(workload, seed):
    """The unfaulted serial run of ``(workload, seed)``: one shot, no
    snapshots, no supervisor (a service job's is ``one_shot_payload``)."""
    steps, build = WORKLOADS[workload]
    if workload == "service":
        return Outcome(
            tuple(
                one_shot_payload(JobSpec(**spec), backend="serial")["fingerprint"]
                for spec in service_specs(steps, seed)
            ),
            None,
            None,
        )
    space, factory = build(steps, seed, "serial")
    search = factory()
    return outcome_of(space, search.run(), search.supernet)


def lose_a_worker(search, step):
    """From ``step`` on, ``search``'s next stage-task map first loses one
    of its backend's workers: a spawned one is SIGKILLed, a TCP link is
    severed.  The map is already placed, so the lost link is assigned
    tasks it will never answer."""
    inner_step = search.step
    backend = search.backend

    def map_losing_a_worker(fn, items):
        if fn is run_stage_task:
            del backend.map  # once
            cluster = backend.cluster()
            with cluster._lock:
                link = next(iter(cluster._links.values()))
            if link.process is not None:
                os.kill(link.process.pid, signal.SIGKILL)
            else:
                link.sock.shutdown(socket.SHUT_RDWR)
        return type(backend).map(backend, fn, items)

    def step_then_lose(index):
        if index == step:
            backend.map = map_losing_a_worker
        return inner_step(index)

    search.step = step_then_lose


def run_service(backend, specs):
    """Submit ``specs`` to one scheduler on ``backend``; their fingerprints."""
    with tempfile.TemporaryDirectory() as directory:
        queue = JobQueue(pathlib.Path(directory))
        scheduler = JobScheduler(
            queue, SchedulerConfig(poll_interval_s=0.005, backend=backend, workers=WORKERS)
        )
        scheduler.start()
        try:
            jobs = [
                scheduler.submit(f"tenant-{index}", spec).job_id
                for index, spec in enumerate(specs)
            ]
            wait_until(
                lambda: all(queue.get(job).state in TERMINAL_STATES for job in jobs),
                timeout=120.0,
            )
        finally:
            scheduler.drain()
        records = [queue.get(job) for job in jobs]
        assert [record.state for record in records] == ["done"] * len(jobs), [
            record.error for record in records
        ]
        fingerprints = tuple(load_results(queue.run_dir(job))["fingerprint"] for job in jobs)
    return Outcome(fingerprints, None, None)


def run_cell(workload, backend, fault, step, seed):
    """One supervised run of the cell, snapshotting every ``CHECKPOINT_EVERY`` steps."""
    steps, build = WORKLOADS[workload]
    if workload == "service":
        assert fault == "none"
        return run_service(backend, service_specs(steps, seed))
    # A lost loopback thread is not replaced, so the cell starts on a
    # fresh cluster (no loss counted yet) and shuts the one it degraded
    # down after.
    loses_a_worker = fault == "worker_loss"
    if loses_a_worker:
        shutdown_pools()
    space, build_search = build(steps, seed, backend)
    specs = fault_specs(fault, step)
    injector = FaultInjector(specs, seed=seed)
    built = []

    def factory():
        built.append(build_search())
        if loses_a_worker:
            lose_a_worker(built[-1], step)
        return built[-1]

    try:
        with tempfile.TemporaryDirectory() as directory:
            supervised = SearchSupervisor(
                factory,
                CheckpointStore(directory),
                SupervisorConfig(
                    checkpoint_every=CHECKPOINT_EVERY, max_restarts=1, backoff_base_s=0.0
                ),
                injector=injector,
                sleep_fn=lambda seconds: None,
            ).run()
        # Every cell's fault really happened, once.
        assert [fired.spec for fired in injector.fired] == specs
        assert supervised.restarts == (1 if specs else 0)
        if loses_a_worker:
            assert built[-1].backend.cluster().worker_losses == 1
    finally:
        if loses_a_worker:
            shutdown_pools()
    return outcome_of(space, supervised.result, built[-1].supernet)


def assert_matches_serial(workload, backend, fault, step, seed):
    """The cell's run equals the unfaulted serial run, three ways."""
    want = reference(workload, seed)
    got = run_cell(workload, backend, fault, step, seed)
    cell = f"{workload} on {backend}, {fault} at step {step}, seed {seed}"
    assert got.fingerprint == want.fingerprint, f"result_payload differs: {cell}"
    assert got.qualities == want.qualities, f"per-step mean_quality differs: {cell}"
    assert got.digest == want.digest, f"final parameters differ: {cell}"


# ----------------------------------------------------------------------
# The cells
# ----------------------------------------------------------------------
def cells():
    for workload in WORKLOADS:
        for backend in BACKEND_NAMES:
            for fault in FAULTS if workload != "service" else ("none",):
                if fault == "worker_loss" and (
                    backend not in REMOTE or workload in SHIPS_NOTHING
                ):
                    continue
                for seed in SERIAL_SEEDS if backend == "serial" else SEEDS:
                    yield workload, backend, fault, seed


def cell_id(workload, backend, fault, seed):
    return f"{workload}-{backend}-{fault}-s{seed}"


def drawn_step(workload, backend, fault, seed):
    """The one step a tier-1 cell injects its fault at, drawn from its id."""
    if fault == "none":
        return None
    return random.Random(cell_id(workload, backend, fault, seed)).choice(
        fault_steps(workload, fault)
    )


@pytest.mark.parametrize(
    "workload, backend, fault, seed", [pytest.param(*c, id=cell_id(*c)) for c in cells()]
)
def test_cell(workload, backend, fault, seed):
    step = drawn_step(workload, backend, fault, seed)
    assert_matches_serial(workload, backend, fault, step, seed)


def test_every_step(workload, backend, fault, seed, step):
    assert_matches_serial(workload, backend, fault, step, seed)


def selects_slow(config):
    """Whether ``-m`` asks for the ``slow`` tests (``not slow`` does not)."""
    return re.search(r"(?<!not )\bslow\b", config.getoption("markexpr") or "") is not None


def pytest_generate_tests(metafunc):
    """The full-step sweep exists only when ``-m`` selects ``slow``: a
    tier-1 run does not even collect it."""
    if metafunc.definition.name != "test_every_step":
        return
    every = []
    if selects_slow(metafunc.config):
        every = [
            pytest.param(*c, step, id=f"{cell_id(*c)}-k{step}", marks=pytest.mark.slow)
            for c in cells()
            if c[2] != "none"
            for step in fault_steps(c[0], c[2])
        ]
    metafunc.parametrize("workload, backend, fault, seed, step", every)
