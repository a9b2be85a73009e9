"""One run of one workload: set-up, measured window, checks, numbers.

End-to-end metrics come from windows in which no wrapper was installed,
and every time among them is in reference time (:mod:`.reference`): the
raw time scaled by how fast the box ran the reference kernel just then.
A traced run alternates plain and traced work, reports the per-layer
metrics from the traced half, and the difference between the halves as
``trace.overhead_pct``.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Optional

from . import env, metrics, reference
from .sizes import DISTURBED_IDLE_SHARE, Sizes
from .spans import SpanRecorder, write_chrome_trace
from .stats import highest_percentile
from .workloads import WORKLOADS, Window


def timed_imports() -> float:
    """Seconds spent importing numpy and the program (part of ``setup_s``)."""
    start = time.perf_counter()
    import numpy  # noqa: F401
    import repro  # noqa: F401
    import repro.core.elastic  # noqa: F401
    import repro.runtime  # noqa: F401
    import repro.service  # noqa: F401

    return time.perf_counter() - start


def end_to_end(
    windows: List[Window], setup_s: float, peak_rss_mb: float, scaled: bool = True
) -> Dict[str, float]:
    """The end-to-end metrics of the plain windows.

    Rates are medians over windows, not totals over the run: the boxes
    this runs on slow down for seconds at a time, and a median forgets
    the windows that happened to.  ``scaled=False`` gives the raw times
    (``setup_s`` is passed in either way).
    """
    scales = [(window, window.scale if scaled else 1.0) for window in windows]
    return {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(w.ops / (w.wall_s * k) for w, k in scales),
        "op_ms_p50": statistics.median(s * k for w, k in scales for s in w.op_s) * 1e3,
        "cpu_ms_per_op": statistics.median(w.cpu_s * k / w.ops for w, k in scales) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def disturbed(window: Window) -> bool:
    """Whether something else had the core during a serial window."""
    return (window.wall_s - window.cpu_s) / window.wall_s > DISTURBED_IDLE_SHARE


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes,
    trace_path: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run ``name`` once and return its record (see ``README.md``)."""
    run_start = time.perf_counter()
    import_s = timed_imports()
    # Set-up is a few long stretches, not many windows: it is scaled as a
    # whole, by reference timings taken at every boundary within it.
    setup_reference_s = reference.samples(3)
    environment = env.fingerprint()
    recorder = SpanRecorder() if trace else None
    with env.scratch_dir() as scratch:
        workload = WORKLOADS[name](seed, sizes, scratch)
        try:
            setup_passes = []
            for _ in range(sizes.setup_repeats):
                start = time.perf_counter()
                workload.set_up()
                setup_passes.append(time.perf_counter() - start)
                setup_reference_s += reference.samples(3)
            start = time.perf_counter()
            workload.settle()
            settle_s = time.perf_counter() - start
            setup_reference_s += reference.samples(3)
            windows = workload.measure(seconds, recorder)
            peak_rss_mb = workload.peak_rss_mb()
            checks = workload.verify(windows)
            layer = workload.layer_metrics(recorder, windows) if trace else {}
        finally:
            workload.close()
    plain = [window for window in windows if not window.traced]
    traced = [window for window in windows if window.traced]
    setup_s = import_s + statistics.median(setup_passes) + settle_s
    setup_scale = reference.scale(setup_reference_s)
    measured = end_to_end(plain, setup_s * setup_scale, peak_rss_mb)
    raw = end_to_end(plain, setup_s, peak_rss_mb, scaled=False)
    if trace:
        traced_p50 = end_to_end(traced, setup_s, peak_rss_mb)["op_ms_p50"]
        layer["trace.overhead_pct"] = (
            (traced_p50 - measured["op_ms_p50"]) / measured["op_ms_p50"] * 100.0
        )
        if trace_path is not None:
            write_chrome_trace(recorder.spans, trace_path)
    window_records = [
        {
            "traced": window.traced,
            "ops": window.ops,
            "failed": window.failed,
            "wall_s": window.wall_s,
            "cpu_s": window.cpu_s,
            "scale": window.scale,
            "op_s": window.op_s,
            "disturbed": workload.serial and disturbed(window),
        }
        for window in windows
    ]
    attempted = sum(window.ops for window in windows)
    operations = sum(len(window.op_s) for window in plain)
    failed = sum(window.failed for window in windows)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment,
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "end_to_end": metrics.report(metrics.END_TO_END, measured, required=True),
        # the same, not scaled to reference time: what a stopwatch read
        "end_to_end_raw": metrics.report(metrics.END_TO_END, raw, required=True),
        "per_layer": metrics.report(metrics.PER_LAYER, layer, required=False) if trace else {},
        "samples": {
            "windows": len(plain),
            "operations": operations,
            # the highest percentile this many operations can support
            "supported_percentile": highest_percentile(operations),
            "setup_passes": len(setup_passes),
            "traced_operations": sum(len(window.op_s) for window in traced),
        },
        "setup": {
            "import_s": import_s,
            "passes_s": setup_passes,
            "settle_s": settle_s,
            "scale": setup_scale,
        },
        "reference": {
            "reference_s": reference.REFERENCE_S,
            "median_sample_s": statistics.median(
                s for window in windows for s in window.reference_s
            ),
        },
        "windows": window_records,
        "disturbed_windows": sum(entry["disturbed"] for entry in window_records),
        "errors": [error for window in windows for error in window.errors][:5],
        "total_s": time.perf_counter() - run_start,
    }


def driver_line(record: Dict[str, Any]) -> Dict[str, Any]:
    """The one JSON object the benchmark contract asks for on the last line."""
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["per_layer"] if record["trace"] else record["end_to_end"],
    }


def render(record: Dict[str, Any]) -> str:
    """Every metric of one run by name, with its unit and sample count."""
    samples = record["samples"]
    lines = [
        f"== {record['workload']}  seed={record['seed']}  trace={int(record['trace'])}  "
        f"correct={record['correct']}  failed={record['failed']}/{record['attempted']}  "
        f"disturbed_windows={record['disturbed_windows']}  checks={record['checks']}  "
        f"took={record['total_s']:.1f}s  "
        f"operations support up to p{samples['supported_percentile']}  "
        f"times scaled to a {record['reference']['reference_s'] * 1e3:.0f} ms reference kernel "
        f"(took {record['reference']['median_sample_s'] * 1e3:.1f} ms here)"
    ]
    counts = {
        "setup_s": samples["setup_passes"],
        "ops_per_s": samples["windows"],
        "op_ms_p50": samples["operations"],
        "cpu_ms_per_op": samples["windows"],
        "peak_rss_mb": 1,
    }
    for name, entry in record["end_to_end"].items():
        lines.append(f"{name:32s} {entry['value']:14.4f} {entry['unit']:6s} n={counts[name]}")
    for name, entry in record["per_layer"].items():
        lines.append(
            f"{name:32s} {entry['value']:14.4f} {entry['unit']:6s} "
            f"n={samples['traced_operations']}"
        )
    lines.extend(record["errors"])
    return "\n".join(lines)
