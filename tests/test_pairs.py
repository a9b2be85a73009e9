"""``tools/pairs.py`` on two tiny commits: the ``BENCH_<pr>.json`` it writes."""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "pairs.py"

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")

#: a stand-in for ``benchmarks/perf/__main__.py``: one run's record, with
#: ``ops_per_s`` set per commit
FAKE_BENCHMARK = """
import argparse, json
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--out", "--trace"):
    parser.add_argument(flag)
parser.add_argument("--smoke", action="store_true")
args = parser.parse_args()
assert args.smoke
metrics = {"ops_per_s": (OPS, "1/s"), "op_ms_p50": (1000.0 / OPS, "ms")}
with open(args.out, "w") as handle:
    json.dump({
        "environment": {"nproc": 2, "commit": "unknown"},
        "contract": {
            "end_to_end": [
                {"name": "ops_per_s", "better": "higher"}, {"name": "op_ms_p50", "better": "lower"},
            ],
            "per_layer": [{"name": "engine.score_ms", "better": "lower"}],
        },
        "runs": [{
            "correct": True,
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "per_layer": {"engine.score_ms": {"value": 800.0 / OPS, "unit": "ms"}}
            if args.trace == "1" else {},
        }],
    }, handle)
"""


def git(repo: pathlib.Path, *args: str) -> None:
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=repo, check=True, capture_output=True,
    )


def commit_benchmark(repo: pathlib.Path, ops: float) -> None:
    main = repo / "benchmarks" / "perf" / "__main__.py"
    main.parent.mkdir(parents=True, exist_ok=True)
    main.write_text(FAKE_BENCHMARK.replace("OPS", repr(ops)))
    (repo / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 18}))
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", f"ops {ops}")


def pairs(repo: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), "--repo", str(repo), *args],
        check=True, capture_output=True, text=True,
    )


@pytest.fixture
def two_commits(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    commit_benchmark(repo, 100.0)
    commit_benchmark(repo, 125.0)
    return repo


def test_a_workload_entry_has_every_pair_ratio_and_summary(two_commits):
    pairs(two_commits, "--pr", "7", "--parent", "HEAD~1", "--workload", "search_train",
          "--pairs", "3", "--seed", "5", "--smoke")
    document = json.loads((two_commits / "BENCH_7.json").read_text())
    assert document["schema"] == 1 and document["pr"] == 7
    (entry,) = document["entries"]
    assert entry["measurement"] == "workload search_train"
    assert entry["parent"]["commit"] != entry["head"]["commit"]
    assert entry["environment"] == {"nproc": 2, "commit": "unknown"}
    assert entry["settings"]["seed"] == 5 and entry["settings"]["seconds"] == 1.0
    assert [p["first"] for p in entry["pairs"]] == ["parent", "head", "parent"]
    for pair in entry["pairs"]:
        assert pair["parent"]["ops_per_s"] == 100.0 and pair["head"]["ops_per_s"] == 125.0
        assert pair["ratio"]["ops_per_s"] == 1.25
        assert pair["correct"] == {"parent": True, "head": True}
    ops = entry["summary"]["ops_per_s"]
    assert (ops["wins"], ops["pairs"], ops["median_ratio"]) == (3, 3, 1.25)
    assert (ops["parent_median"], ops["head_median"], ops["parent_iqr"]) == (100.0, 125.0, 0.0)
    assert ops["beyond_parent_iqr"]
    latency = entry["summary"]["op_ms_p50"]
    assert latency["better"] == "lower" and latency["wins"] == 3
    assert not (two_commits / ".pairs_tmp").exists()

    # the same measurement again replaces its entry; --history shows it
    pairs(two_commits, "--pr", "7", "--parent", "HEAD~1", "--workload", "search_train",
          "--pairs", "1", "--smoke")
    document = json.loads((two_commits / "BENCH_7.json").read_text())
    assert [len(e["pairs"]) for e in document["entries"]] == [1]
    # a traced run records the per-layer metrics, as an entry of its own
    pairs(two_commits, "--pr", "7", "--parent", "HEAD~1", "--workload", "search_train",
          "--pairs", "1", "--smoke", "--trace")
    document = json.loads((two_commits / "BENCH_7.json").read_text())
    traced = document["entries"][1]
    assert traced["measurement"] == "workload search_train traced"
    assert traced["pairs"][0]["ratio"] == {"engine.score_ms": 0.8}
    assert traced["summary"]["engine.score_ms"]["wins"] == 1
    table = pairs(two_commits, "--history").stdout.splitlines()
    assert len(table) == 3 and table[2].startswith("| 7 |")
    assert "| ops_per_s | 100 → 125 | 1.250 | 1/1 |" in table[2]


def test_the_step_probe_records_the_step_time_and_the_weights(tmp_path):
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src" / "repro", repo / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "benchmarks" / "perf", repo / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (repo / "benchmarks" / "__init__.py").write_text("")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "parent")
    git(repo, "commit", "-q", "--allow-empty", "-m", "head")
    pairs(repo, "--pr", "8", "--parent", "HEAD~1", "--tables", "2", "--backend", "serial",
          "--steps", "8", "--pairs", "1", "--seed", "3", "--profile")
    (entry,) = json.loads((repo / "BENCH_8.json").read_text())["entries"]
    assert entry["measurement"] == "step probe 2 tables on serial"
    assert entry["environment"]["thread_pins"]["OPENBLAS_NUM_THREADS"] == "1"
    (pair,) = entry["pairs"]
    assert pair["sha256_equal"] and pair["parent"]["fingerprint"] == pair["head"]["fingerprint"]
    assert pair["parent"]["step_ms"] > 0 and set(entry["summary"]) == {"step_ms"}
    for side in ("parent", "head"):  # collections per 100 steps, generations 0, 1 and 2
        collections = pair[side]["gc_per_100_steps"]
        assert len(collections) == 3 and all(count >= 0 for count in collections)
        assert collections[0] > 0  # eight steps of a search allocate past gen 0's threshold
        assert entry["gc_per_100_steps"][side] == collections  # the median of one pair
    for side in ("parent", "head"):
        counts = entry["profile"][side]
        assert counts["sha256"] == pair["parent"]["sha256"]
        assert counts["python_calls_per_step"] > counts["tensors_per_step"] > 0
        assert counts["accumulate_calls_per_step"] > 0
