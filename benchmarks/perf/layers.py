"""Per-layer numbers: wrappers at the layer boundaries, and isolated probes.

Wrappers go on the engine the harness built and on the objects it holds
(pipeline, supernet, controller, eval runtime, backend).  A *probe* is
one isolated, timed call sequence into a layer's public functions, run
once per traced invocation of the workload the layer matters to.
"""

from __future__ import annotations

import os
import pickle
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List

from . import spans as span_tools
from .spans import SpanRecorder
from .stats import MIN_SAMPLES_BEYOND, percentile, samples_beyond

#: engine method -> span name; each is one stage of ``SearchEngine._step``
ENGINE_STAGES = {
    "sample_shard": "engine.sample",
    "score_shard": "engine.score",
    "price_shard": "engine.price",
    "assemble_candidates": "engine.reward",
    "policy_update": "engine.policy_update",
    "accumulate_shard_gradient": "engine.grad",
    "optimizer_step": "engine.optimizer",
}

#: (holder on the engine, attribute, span name) below the stage level
INNER_CALLS = (
    ("pipeline", "next_shard", "data.next_shard"),
    ("supernet", "quality_many", "supernet.quality_many"),
    ("supernet", "loss_many", "supernet.loss_many"),
    ("controller", "sample_many", "controller.sample_many"),
    ("controller", "update", "controller.update"),
    ("runtime", "price_many", "eval.price_many"),
    ("runtime", "performance_fn", "hardware.simulate"),
)

STEP_SPAN = "engine.step"
MAP_SPAN = "backend.map"


@dataclass
class EngineTally:
    """Counts taken at the same boundaries as the spans, over traced steps."""

    steps: int = 0
    groups: int = 0
    map_items: int = 0
    #: seconds pool workers reported for the tasks they ran, and how many
    #: workers shared them
    worker_s: float = 0.0
    workers: int = 1
    tape_hits: int = 0
    tape_misses: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    evaluations: int = 0
    #: the program's own stage timers (``eval_stats.stage_seconds``), summed
    stage_seconds: float = 0.0


def install_engine_wrappers(
    recorder: SpanRecorder, engine: Any, tally: EngineTally
) -> None:
    """Record a span around every layer boundary ``engine.step`` crosses."""
    from repro.core.engine import group_unique_architectures
    from repro.core.engine.worker import run_stage_task

    for attribute, name in ENGINE_STAGES.items():
        recorder.install(engine, attribute, name)
    for holder, attribute, name in INNER_CALLS:
        recorder.install(getattr(engine, holder), attribute, name)

    traced_sample = engine.sample_shard

    def sample_shard(count: int, warming_up: bool) -> Any:
        drawn = traced_sample(count, warming_up)
        tally.groups += len(group_unique_architectures(drawn))
        return drawn

    engine.sample_shard = sample_shard

    backend = engine.backend
    inner_map = backend.map
    tally.workers = max(1, int(backend.workers))

    def traced_map(fn: Any, items: Any) -> Any:
        with recorder.span(MAP_SPAN):
            results = inner_map(fn, items)
        tally.map_items += len(items)
        if fn is run_stage_task:  # remote tasks come back as (value, seconds, pid)
            tally.worker_s += sum(seconds for _, seconds, _ in results)
        return results

    backend.map = traced_map


def collect_engine_counters(tally: EngineTally, engine: Any, result: Any) -> None:
    """Read the program's own counters once a traced search has finished."""
    tape = engine.supernet.tape_stats()
    tally.tape_hits += int(tape["hits"])
    tally.tape_misses += int(tape["misses"])
    stats = result.eval_stats
    tally.cache_hits += int(stats.cache_hits)
    tally.cache_misses += int(stats.cache_misses)
    tally.evaluations += int(engine.runtime.evaluations)
    tally.stage_seconds += sum(stats.stage_seconds.values())


def _median_ms(samples: List[float]) -> float:
    return statistics.median(samples) * 1e3


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def engine_metrics(recorder: SpanRecorder, tally: EngineTally) -> Dict[str, float]:
    """The ``engine.*`` … ``backend.*`` metrics of one traced run, per step."""
    spans = recorder.spans
    steps = max(1, tally.steps)
    totals: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    own: Dict[str, float] = {}
    for span, self_s in zip(spans, span_tools.self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start)
        calls[span.name] = calls.get(span.name, 0) + 1
        own[span.name] = own.get(span.name, 0.0) + self_s

    def per_step_ms(name: str) -> float:
        return totals.get(name, 0.0) / steps * 1e3

    measured = {f"{name}_ms": per_step_ms(name) for name in ENGINE_STAGES.values()}
    for _, _, name in INNER_CALLS:
        measured[f"{name}_ms"] = per_step_ms(name)
    simulate_calls = calls.get("hardware.simulate", 0)
    measured["hardware.simulate_ms"] = (
        totals.get("hardware.simulate", 0.0) / simulate_calls * 1e3
        if simulate_calls
        else 0.0
    )
    step_s = span_tools.durations(spans, STEP_SPAN)
    tail_supported = samples_beyond(len(step_s), 90) >= MIN_SAMPLES_BEYOND
    # The stage spans and the next_shard span are the step span's children.
    staged = sum(totals.get(name, 0.0) for name in ENGINE_STAGES.values())
    staged += totals.get("data.next_shard", 0.0)
    measured.update(
        {
            "engine.step_self_ms": own.get(STEP_SPAN, 0.0) / steps * 1e3,
            "engine.step_ms_p90": percentile(step_s, 90) * 1e3 if tail_supported else 0.0,
            "engine.groups_per_step": tally.groups / steps,
            "supernet.quality_many_calls": calls.get("supernet.quality_many", 0) / steps,
            "supernet.loss_many_calls": calls.get("supernet.loss_many", 0) / steps,
            "supernet.tape_hit_ratio": _ratio(tally.tape_hits, tally.tape_misses),
            "eval.hit_ratio": _ratio(tally.cache_hits, tally.cache_misses),
            "eval.evaluations_per_step": tally.evaluations / steps,
            "hardware.simulate_calls": simulate_calls / steps,
            "backend.map_ms": per_step_ms(MAP_SPAN),
            "backend.map_calls": calls.get(MAP_SPAN, 0) / steps,
            "backend.items": tally.map_items / steps,
            # What a map costs beyond the scoring it ran: its self time
            # (in process the scoring calls are its child spans), less the
            # workers' own compute when that happened in other processes.
            "backend.overhead_ms": (
                own.get(MAP_SPAN, 0.0) - tally.worker_s / tally.workers
            )
            / steps
            * 1e3,
            "trace.stage_gap_pct": (
                abs(staged - tally.stage_seconds) / tally.stage_seconds * 100.0
                if tally.stage_seconds
                else 0.0
            ),
        }
    )
    restores = span_tools.durations(spans, "artifact.restore")
    if restores:
        measured["artifact.restore_ms"] = _median_ms(restores)
    return measured


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def _quickstart_parts(seed: int) -> Any:
    """Space, supernet and batch source of the quickstart DLRM search."""
    from repro.data import CtrTaskConfig, CtrTeacher
    from repro.searchspace import DlrmSpaceConfig, dlrm_search_space
    from repro.supernet import DlrmSuperNetwork, DlrmSupernetConfig

    space = dlrm_search_space(DlrmSpaceConfig(num_tables=2, num_dense_stacks=2))
    supernet = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=2, seed=seed))
    teacher = CtrTeacher(CtrTaskConfig(num_tables=2, batch_size=64, seed=seed))
    return space, supernet, teacher


def probe_nn(seed: int, iterations: int) -> Dict[str, float]:
    """``loss`` + ``backward`` + ``Adam.step`` on the DLRM supernet.

    One architecture repeated (its compiled tape is replayed) against a
    fresh architecture per step (traced and compiled every time): the
    gap, times ``supernet.tape_hit_ratio``, is what a tape change can buy.
    """
    import numpy as np

    from repro.nn import Adam

    space, supernet, teacher = _quickstart_parts(seed)
    optimizer = Adam(supernet.parameters(), lr=0.005)
    rng = np.random.default_rng(seed)
    adam_s: List[float] = []

    def train_step(arch: Any) -> float:
        batch = teacher.next_batch()
        start = time.perf_counter()
        supernet.zero_grad()
        supernet.loss(arch, batch.inputs, batch.labels).backward()
        stepped = time.perf_counter()
        optimizer.step()
        end = time.perf_counter()
        adam_s.append(end - stepped)
        return end - start

    repeated = space.sample(rng)
    train_step(repeated)  # compiles the repeated architecture's tape
    hit_s = [train_step(repeated) for _ in range(iterations)]
    miss_s = [train_step(space.sample(rng)) for _ in range(iterations)]
    return {
        "nn.train_step_hit_ms": _median_ms(hit_s),
        "nn.train_step_miss_ms": _median_ms(miss_s),
        "nn.adam_step_ms": _median_ms(adam_s),
    }


def probe_backend(seed: int, iterations: int) -> Dict[str, float]:
    """What ``search_pooled`` pays per step that ``search_train`` does not:
    a shared-memory weight publish and one pickled task per group."""
    import numpy as np

    from repro.core.engine.worker import (
        StageTask,
        build_remote_context,
        payload_nbytes,
        quality_many_payloads,
    )

    space, supernet, teacher = _quickstart_parts(seed)
    context = build_remote_context(supernet)
    if context is None:  # no shared memory here: the pooled path is off
        return {}
    try:
        publish_s = []
        for _ in range(iterations):
            start = time.perf_counter()
            context.publish()
            publish_s.append(time.perf_counter() - start)
        arch = space.sample(np.random.default_rng(seed))
        drawn = [(arch, space.indices_of(arch))]
        payload = quality_many_payloads(drawn, [teacher.next_batch()], [[0]])[0]
        task = StageTask(
            stage="score", kind="quality_many", context=context.ref(), payload=payload
        )
        pickle_s = []
        for _ in range(iterations):
            start = time.perf_counter()
            pickle.dumps(task)
            pickle_s.append(time.perf_counter() - start)
        return {
            "backend.publish_ms": _median_ms(publish_s),
            "backend.pickle_task_ms": _median_ms(pickle_s),
            "backend.task_bytes": float(payload_nbytes([task])),
        }
    finally:
        context.release()


def directory_bytes(path: Any) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass  # retention removed it under us
    return total


def probe_checkpoint(seed: int, steps: int, iterations: int, scratch: Any) -> Dict[str, float]:
    """Save and load of the snapshot a service job writes after every step."""
    from repro.runtime import CheckpointStore, search_checkpoint_payload
    from repro.service.jobs import dlrm_search_builder

    _, factory = dlrm_search_builder(steps, seed, True, backend="serial")
    search = factory().search_algorithm
    history = [search.step(step) for step in range(steps)]
    payload = search_checkpoint_payload(search, steps, history)
    store = CheckpointStore(scratch / "probe-checkpoints")
    save_s, load_s = [], []
    for _ in range(iterations):
        start = time.perf_counter()
        info = store.save(steps, payload)
        save_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        store.load(info)
        load_s.append(time.perf_counter() - start)
    return {
        "checkpoint.save_ms": _median_ms(save_s),
        "checkpoint.load_ms": _median_ms(load_s),
        "checkpoint.bytes": float(directory_bytes(store.snapshot_dir(info))),
    }


def probe_run_job(spec: Dict[str, Any], scratch: Any) -> Dict[str, float]:
    """One job run in process by ``run_job``: the daemon's work, no daemon."""
    from repro.service import JobRecord, run_job

    record = JobRecord(job_id="probe", seq=0, tenant="probe", spec=spec)
    start = time.perf_counter()
    run_job(record, scratch / "probe-run")
    return {"service.run_job_s": time.perf_counter() - start}
