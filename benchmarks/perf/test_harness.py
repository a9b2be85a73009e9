"""Self-tests of the benchmark harness.

Run with ``python -m pytest -q benchmarks/perf``; tier-1 (``testpaths =
tests``) does not collect them.  The arithmetic tests need nothing but
the harness; the smoke tests run the real matrix at toy sizes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from benchmarks.perf import compare, env, metrics
from benchmarks.perf.spans import Span, SpanRecorder, chrome_trace, self_times
from benchmarks.perf.stats import highest_percentile, percentile, quartiles

ENTRY_POINT = env.REPO_ROOT / "benchmarks" / "perf" / "__main__.py"


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def span(name, start, end, parent=None):
    return Span(name=name, start=start, end=end, parent=parent, op="", thread=0)


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        span("step", 0.0, 10.0),
        span("score", 1.0, 4.0, parent=0),
        span("map", 1.5, 3.5, parent=1),  # nested: charged to score, not to step
        span("grad", 5.0, 9.0, parent=0),  # sibling of score
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 4.0, 3.0 - 2.0, 2.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("job", 0.0, 10.0),
        span("a", 1.0, 6.0, parent=0),
        span("b", 4.0, 8.0, parent=0),  # overlaps a by 2
        span("c", 9.0, 12.0, parent=0),  # outlives the parent by 2
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_recorder_links_children_to_the_open_span():
    recorder = SpanRecorder()
    recorder.set_op("step/3")
    inner = recorder.wrap("inner", lambda x: x + 1)
    with recorder.span("outer"):
        assert inner(1) == 2
        assert inner(2) == 3
    assert inner(3) == 4
    assert [(s.name, s.parent, s.op) for s in recorder.spans] == [
        ("outer", None, "step/3"),
        ("inner", 0, "step/3"),
        ("inner", 0, "step/3"),
        ("inner", None, "step/3"),
    ]
    own = self_times(recorder.spans)
    outer = recorder.spans[0]
    children = sum(s.end - s.start for s in recorder.spans[1:3])
    assert own[0] == pytest.approx(outer.end - outer.start - children)
    events = chrome_trace(recorder.spans)["traceEvents"]
    assert [e["args"]["parent"] for e in events] == [None, 0, 0, None]


def test_install_shadows_the_method_on_one_instance_only():
    class Layer:
        def work(self):
            return "done"

    recorder = SpanRecorder()
    traced, plain = Layer(), Layer()
    recorder.install(traced, "work", "layer.work")
    assert traced.work() == "done" and plain.work() == "done"
    assert [s.name for s in recorder.spans] == ["layer.work"]
    assert "work" not in vars(plain) and Layer.work.__name__ == "work"


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------
def test_highest_percentile_needs_ten_samples_beyond():
    assert highest_percentile(50) == 80  # 10 of 50 lie above p80, 9.5 above p81
    assert highest_percentile(1000) == 99
    assert highest_percentile(200) == 95
    assert highest_percentile(19) == 50  # no tail to speak of
    assert highest_percentile(20) == 50


def test_percentile_and_quartiles():
    values = list(range(1, 102))  # 1..101
    assert percentile(values, 50) == 51
    assert percentile(values, 95) == 96
    assert percentile([3.0], 95) == 3.0
    first, median, third = quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (first, median, third) == (2.75, 5.5, 8.25)  # statistics.quantiles, n=4
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)


# ----------------------------------------------------------------------
# Reference time
# ----------------------------------------------------------------------
def test_times_are_scaled_by_what_the_reference_kernel_took():
    from benchmarks.perf import reference
    from benchmarks.perf.runner import end_to_end
    from benchmarks.perf.workloads import Window

    half_speed = 2 * reference.REFERENCE_S
    window = Window(
        ops=2, wall_s=1.0, cpu_s=0.8, op_s=[0.4, 0.6], reference_s=[half_speed, half_speed]
    )
    raw = end_to_end([window], 3.0, 100.0, scaled=False)
    scaled = end_to_end([window], 3.0, 100.0)
    assert raw["ops_per_s"] == pytest.approx(2.0) and raw["op_ms_p50"] == pytest.approx(500.0)
    assert scaled["ops_per_s"] == pytest.approx(4.0)  # a box twice as fast does twice as much
    assert scaled["op_ms_p50"] == pytest.approx(250.0)
    assert scaled["cpu_ms_per_op"] == pytest.approx(raw["cpu_ms_per_op"] / 2)
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"] == 100.0  # not a time


# ----------------------------------------------------------------------
# Comparator
# ----------------------------------------------------------------------
def synthetic(values, metric="op_ms_p50", workload="search_train", **environment):
    contract = {
        "end_to_end": [
            {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.10},
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
        ]
    }
    return {
        "environment": {"commit": "abc", "nproc": 2, "loadavg_at_start": [0.1], **environment},
        "contract": contract,
        "runs": [
            {"workload": workload, "trace": False, "end_to_end": {metric: {"value": v, "unit": "x"}}}
            for v in values
        ],
    }


STEADY = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]


def verdict_of(parent, change):
    rows, verdicts = compare.compare(parent, change)
    assert len(verdicts) == 1 and verdicts[0] in rows[1]
    return verdicts[0]


def test_comparator_verdicts():
    parent = synthetic(STEADY)
    assert verdict_of(parent, synthetic([v * 1.01 for v in STEADY])) == "same"
    assert verdict_of(parent, synthetic([v * 1.2 for v in STEADY])) == "regressed"
    assert verdict_of(parent, synthetic([v * 0.9 for v in STEADY])) == "improved"
    # better by less than the parent's own quartile distance: not a gain
    assert verdict_of(parent, synthetic([v * 0.995 for v in STEADY])) == "same"
    noisy = [10.0, 12.5, 8.0, 11.5, 9.0, 10.0, 12.0, 8.5, 10.5, 9.5]
    assert verdict_of(parent, synthetic(noisy)) == "unresolved"
    # spread wider than the bound, but every run beats every parent run
    assert verdict_of(parent, synthetic([v * 0.5 for v in noisy])) == "improved"


def test_comparator_respects_the_direction():
    parent = synthetic(STEADY, metric="ops_per_s")
    assert verdict_of(parent, synthetic([v * 0.8 for v in STEADY], "ops_per_s")) == "regressed"
    assert verdict_of(parent, synthetic([v * 1.2 for v in STEADY], "ops_per_s")) == "improved"


def test_comparator_skips_traced_runs_and_keeps_workloads_apart():
    document = synthetic(STEADY)
    document["runs"].append(
        {"workload": "search_train", "trace": True, "end_to_end": {"op_ms_p50": {"value": 99.0}}}
    )
    document["runs"] += synthetic([20.0], workload="service_jobs")["runs"]
    summary = compare.summarize(document)
    assert set(summary) == {("op_ms_p50", "search_train"), ("op_ms_p50", "service_jobs")}
    assert max(summary[("op_ms_p50", "search_train")].values) < 99.0


def test_compare_refuses_different_environments(tmp_path, capsys):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(json.dumps(synthetic(STEADY)))
    second.write_text(json.dumps(synthetic(STEADY, nproc=8)))
    assert compare.main([str(first), str(second)]) == 2
    assert "nproc" in capsys.readouterr().err
    # commit and load average may differ: comparing commits is the point
    second.write_text(json.dumps(synthetic(STEADY, commit="def", loadavg_at_start=[2.0])))
    assert compare.main([str(first), str(second)]) == 0
    second.write_text(json.dumps(synthetic([v * 1.3 for v in STEADY])))
    assert compare.main([str(first), str(second)]) == 1
    assert "regressed" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Containment
# ----------------------------------------------------------------------
ORPHANING_RUN = """
import subprocess, sys
from benchmarks.perf import reaper
reaper.contain(linger_s=0.2)
# what a run must never do: start processes, in a session of their own
# even, and leave without stopping or waiting for them
for seconds in ("0.05", "600"):
    print(subprocess.Popen(["sleep", seconds], start_new_session=True).pid, flush=True)
sys.exit(7)
"""


def test_command_returns_only_after_everything_it_started_has_ended():
    done = subprocess.run(
        [sys.executable, "-c", ORPHANING_RUN],
        cwd=env.REPO_ROOT, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 7  # the run's exit code comes through
    quick, stuck = (int(line) for line in done.stdout.split())
    # neither running nor a zombie: waited for (quick) and killed (stuck)
    assert not os.path.exists(f"/proc/{quick}")
    assert not os.path.exists(f"/proc/{stuck}")


# ----------------------------------------------------------------------
# The contract file
# ----------------------------------------------------------------------
def contract():
    with open(env.REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_contract_names_are_the_names_the_runner_emits():
    declared = contract()
    assert [w["name"] for w in declared["workloads"]] == list(metrics.WORKLOADS)
    for section, emitted in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        assert [
            (m["name"], m["unit"], m["better"]) for m in declared[section]
        ] == [(name, unit, better) for name, (unit, better) in emitted.items()]
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert "setup_s" in metrics.END_TO_END
    assert declared["paths"] == ["benchmarks/perf"]
    assert (env.REPO_ROOT / declared["command"][1]) == ENTRY_POINT


# ----------------------------------------------------------------------
# The real thing, at toy sizes
# ----------------------------------------------------------------------
def run_benchmark(*arguments, timeout=120):
    done = subprocess.run(
        [sys.executable, str(ENTRY_POINT), *arguments],
        cwd=env.REPO_ROOT, capture_output=True, text=True, timeout=timeout,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_smoke_matrix_is_correct_and_quick(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.perf_counter()
    stdout = run_benchmark("--smoke", "--out", str(out))
    assert time.perf_counter() - start < 30.0
    document = json.loads(out.read_text())
    assert [r["workload"] for r in document["runs"]] == list(metrics.WORKLOADS)
    for record in document["runs"]:
        assert record["correct"] and record["failed"] == 0, record
        assert all(record["checks"].values()), record["checks"]
        assert list(record["end_to_end"]) == list(metrics.END_TO_END)
        assert all(entry["value"] > 0 for entry in record["end_to_end"].values())
        assert list(record["end_to_end_raw"]) == list(metrics.END_TO_END)
    assert set(document["environment"]) >= {
        "commit", "python", "numpy", "blas", "thread_pins", "nproc", "cpu_model",
        "platform", "start_method", "loadavg_at_start",
    }
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert not env.SCRATCH_ROOT.exists()  # cleaned up after itself


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_traced_smoke_run_reports_every_layer_metric(workload, tmp_path):
    out = tmp_path / "traced.json"
    stdout = run_benchmark("--smoke", "--trace", "1", "--workload", workload, "--out", str(out))
    last = json.loads(stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert list(last["metrics"]) == list(metrics.PER_LAYER)
    record = json.loads(out.read_text())["runs"][0]
    assert all(record["checks"].values())  # the traced run's fingerprints match too
    events = json.loads(
        (tmp_path / f"traced.{workload}.0.trace.json").read_text()
    )["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)
    if workload != "service_jobs":
        # stage spans plus the step's self time add up to the step span
        stages = sum(
            last["metrics"][f"{name}_ms"]["value"]
            for name in (
                "engine.sample", "engine.score", "engine.price", "engine.reward",
                "engine.policy_update", "engine.grad", "engine.optimizer", "data.next_shard",
            )
        )
        steps = [e["dur"] for e in events if e["name"] == "engine.step"]
        step_ms = sum(steps) / len(steps) / 1e3
        own = last["metrics"]["engine.step_self_ms"]["value"]
        assert stages + own == pytest.approx(step_ms, rel=1e-6)
        assert last["metrics"]["trace.stage_gap_pct"]["value"] < 5.0


def test_exits_nonzero_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    (bare / "benchmarks" / "perf").mkdir(parents=True)
    for path in (env.REPO_ROOT / "benchmarks" / "perf").glob("*.py"):
        (bare / "benchmarks" / "perf" / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text((env.REPO_ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/__main__.py", "--workload", "search_train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
