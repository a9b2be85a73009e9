"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root declares the same names (the
self-tests hold the two equal) and adds the regression bounds.  The
runner builds its output by looking every declared name up in what the
workload measured, so a metric cannot be declared and not reported, or
reported and not declared.

An *operation* is what a workload's user waits for: one ``step()`` of a
search on the three search workloads, one submitted job (submit call to
results payload in hand) on ``service_jobs``.
"""

from __future__ import annotations

from typing import Dict, Tuple

WORKLOADS: Tuple[str, ...] = (
    "search_train",
    "specialize_fleet",
    "search_pooled",
    "service_jobs",
)

#: name -> (unit, which way is better); measured with no wrapper installed
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "cpu_ms_per_op": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, which way is better); from the traced run and the
#: probes.  A metric whose layer is not on a workload's path reads 0 there.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # core.engine: stage spans, per step
    "engine.sample_ms": ("ms", "lower"),
    "engine.score_ms": ("ms", "lower"),
    "engine.price_ms": ("ms", "lower"),
    "engine.reward_ms": ("ms", "lower"),
    "engine.policy_update_ms": ("ms", "lower"),
    "engine.grad_ms": ("ms", "lower"),
    "engine.optimizer_ms": ("ms", "lower"),
    "engine.step_self_ms": ("ms", "lower"),
    "engine.step_ms_p90": ("ms", "lower"),
    "engine.groups_per_step": ("count", "lower"),
    # data
    "data.next_shard_ms": ("ms", "lower"),
    # supernet
    "supernet.quality_many_ms": ("ms", "lower"),
    "supernet.quality_many_calls": ("count", "lower"),
    "supernet.loss_many_ms": ("ms", "lower"),
    "supernet.loss_many_calls": ("count", "lower"),
    "supernet.tape_hit_ratio": ("ratio", "higher"),
    # nn (probe)
    "nn.train_step_hit_ms": ("ms", "lower"),
    "nn.train_step_miss_ms": ("ms", "lower"),
    "nn.adam_step_ms": ("ms", "lower"),
    # core.controller
    "controller.sample_many_ms": ("ms", "lower"),
    "controller.update_ms": ("ms", "lower"),
    # core.eval_runtime
    "eval.price_many_ms": ("ms", "lower"),
    "eval.hit_ratio": ("ratio", "higher"),
    "eval.evaluations_per_step": ("count", "lower"),
    # hardware / models.timing
    "hardware.simulate_ms": ("ms", "lower"),
    "hardware.simulate_calls": ("count", "lower"),
    # runtime.artifact
    "artifact.restore_ms": ("ms", "lower"),
    # core.engine.backends / worker / shm
    "backend.map_ms": ("ms", "lower"),
    "backend.map_calls": ("count", "lower"),
    "backend.items": ("count", "lower"),
    "backend.overhead_ms": ("ms", "lower"),
    "backend.publish_ms": ("ms", "lower"),
    "backend.task_bytes": ("bytes", "lower"),
    "backend.pickle_task_ms": ("ms", "lower"),
    # runtime.checkpoint (probe)
    "checkpoint.save_ms": ("ms", "lower"),
    "checkpoint.load_ms": ("ms", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    # service
    "service.submit_ms": ("ms", "lower"),
    "service.status_ms": ("ms", "lower"),
    "service.results_ms": ("ms", "lower"),
    "service.status_calls": ("count", "lower"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.run_s": ("s", "lower"),
    "service.finish_lag_ms": ("ms", "lower"),
    "service.spool_mb_per_job": ("MB", "lower"),
    "service.run_job_s": ("s", "lower"),
    "service.overhead_ratio": ("ratio", "lower"),
    # the tracing itself
    "trace.overhead_pct": ("%", "lower"),
    "trace.stage_gap_pct": ("%", "lower"),
}


def report(
    declared: Dict[str, Tuple[str, str]], measured: Dict[str, float], required: bool
) -> Dict[str, Dict]:
    """``{name: {"value", "unit"}}`` for exactly the declared names.

    A name the workload measured but nobody declared is a bug in the
    benchmark, not a result, and so is a ``required`` name it did not
    measure; otherwise a name it did not measure reads 0 (the layer is
    not on this workload's path).
    """
    unknown = set(measured) - set(declared)
    missing = set(declared) - set(measured) if required else set()
    if unknown or missing:
        raise KeyError(
            f"measured but not declared: {sorted(unknown)}; "
            f"declared but not measured: {sorted(missing)}"
        )
    return {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, (unit, _) in declared.items()
    }
