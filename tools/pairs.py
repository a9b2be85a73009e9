"""Alternated parent/head measurements, recorded as ``BENCH_<pr>.json``.

A speedup claim is a committed row or it is not made.  This runs the
same measurement on two commits, in alternated pairs, and writes every
pair, the per-pair ratios, the wins and the medians and interquartile
ranges to ``BENCH_<pr>.json`` at the repository root::

    python tools/pairs.py --pr 46 --parent 62d6f63 --workload search_train \\
        --pairs 10 --seed 5
    python tools/pairs.py --pr 46 --parent 62d6f63 --tables 26 --backend serial \\
        --pairs 4 --seed 3 [--profile]
    python tools/pairs.py --history

Each side is exported with ``git archive`` into a directory of its own
under ``.pairs_tmp/`` (removed at the end), so it runs from a tree that is
not a git repository, as the benchmark runner does.  The two modes:

* ``--workload W`` runs each side's own ``benchmarks/perf/__main__.py
  --workload W --seed S --seconds T --out FILE`` and records every
  end-to-end metric of ``BENCHMARK.json`` (with ``--trace``, a traced
  run's per-layer metrics instead);
* ``--tables N --backend B`` is the step probe: each side runs the
  quickstart search (``repro.service.jobs._NUM_TABLES`` set to N) for
  ``--steps`` steps on backend B, and records the median wall time per
  step after the first ``PROBE_WARMUP`` and a SHA-256 over the final
  weights.  ``--profile`` adds one run per side under ``cProfile``:
  Python calls, ``Tensor``s made and ``Tensor._accumulate`` calls per
  step.

Pair ``i`` runs the parent first when ``i`` is even and the head first
when it is odd.  BLAS is pinned to one thread in every child.  An entry
replaces an earlier one of the same measurement in the same file.
``--history`` prints a Markdown table of every ``BENCH_*.json`` (one
row per entry) and writes nothing.  ``--smoke`` passes ``--smoke`` to
the benchmark and shortens its window, for the tool's own test.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SCHEMA = 1
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: probe steps left out of the median: engine start-up and first shapes
PROBE_WARMUP = 5

#: run in a side's tree as ``python -c PROBE tables backend steps seed profile``;
#: prints one JSON object
PROBE = r"""
import cProfile, hashlib, json, pstats, sys, time
import repro.service.jobs as jobs
from repro.core.engine.backends import shutdown_pools
from repro.service.jobs import JobSpec, result_payload, run_spec
tables, backend, steps, seed, profile = sys.argv[1:6]
jobs._NUM_TABLES = int(tables)
stamps = []
run = lambda: run_spec(
    JobSpec(steps=int(steps), seed=int(seed)), backend=backend,
    workers=None if backend == "serial" else 2,
    on_step=lambda step: stamps.append(time.perf_counter()),
)
profiler = cProfile.Profile() if profile == "1" else None
if profiler is not None:
    profiler.enable()
space, engine, result = run()
if profiler is not None:
    profiler.disable()
shutdown_pools()
digest = hashlib.sha256()
for param in engine.supernet.parameters():
    digest.update(param.data.tobytes())
step_s = [b - a for a, b in zip(stamps, stamps[1:])][int(sys.argv[6]):]
out = {
    "step_ms": 1e3 * sorted(step_s)[len(step_s) // 2],
    "sha256": digest.hexdigest(),
    "fingerprint": result_payload(space, result)["fingerprint"],
}
if profiler is not None:
    stats = pstats.Stats(profiler).stats
    def calls(file_end, name):
        return sum(v[1] for (f, _, n), v in stats.items() if f.endswith(file_end) and n == name)
    per_step = 1.0 / int(steps)
    out["python_calls_per_step"] = sum(v[1] for v in stats.values()) * per_step
    out["tensors_per_step"] = calls("repro/nn/tensor.py", "__init__") * per_step
    out["accumulate_calls_per_step"] = calls("repro/nn/tensor.py", "_accumulate") * per_step
    del out["step_ms"]  # a profiled run's wall time is not a measurement
print(json.dumps(out))
"""


def git(repo: pathlib.Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=repo, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(repo: pathlib.Path, rev: str, into: pathlib.Path) -> str:
    """``rev``'s tree exported into ``into``; returns its commit."""
    commit = git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}")
    into.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", commit], cwd=repo, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return commit


def child_env(src: Optional[pathlib.Path] = None) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({name: "1" for name in THREAD_PINS})
    if src is not None:
        env["PYTHONPATH"] = str(src)
    return env


def run_workload(tree: pathlib.Path, args: argparse.Namespace, out: pathlib.Path) -> Dict[str, Any]:
    """One benchmark run of ``tree``: ``{"metrics", "units", "better", "environment", "correct"}``.

    The metrics are the end-to-end ones, or with ``--trace`` the per-layer ones."""
    command = [
        sys.executable, "benchmarks/perf/__main__.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(out),
        "--trace", "1" if args.trace else "0",
    ]
    if args.smoke:
        command.append("--smoke")
    subprocess.run(command, cwd=tree, env=child_env(), check=True, stdout=subprocess.DEVNULL)
    with open(out, encoding="utf-8") as handle:
        document = json.load(handle)
    run = document["runs"][0]
    kind = "per_layer" if args.trace else "end_to_end"
    better = {m["name"]: m["better"] for m in document["contract"][kind]}
    return {
        "metrics": {name: entry["value"] for name, entry in run[kind].items()},
        "units": {name: entry["unit"] for name, entry in run[kind].items()},
        "better": better,
        "environment": document["environment"],
        "correct": run["correct"],
    }


def run_probe(tree: pathlib.Path, args: argparse.Namespace, profile: bool) -> Dict[str, Any]:
    """One step-probe run of ``tree``."""
    command = [
        sys.executable, "-c", PROBE, str(args.tables), args.backend, str(args.steps),
        str(args.seed), "1" if profile else "0", str(PROBE_WARMUP),
    ]
    done = subprocess.run(
        command, cwd=tree, env=child_env(tree / "src"), check=True, capture_output=True, text=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: List[Dict[str, Any]], better: Dict[str, str]) -> Dict[str, Any]:
    """Per metric: medians and IQRs of each side, the median ratio, and
    the pairs the head won."""
    summary = {}
    for name, direction in better.items():
        parent = [p["parent"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        p_q, h_q = quartiles(parent), quartiles(head)
        ratios = [p["ratio"][name] for p in pairs if p["ratio"][name] is not None]
        wins = sum(
            (h > p) if direction == "higher" else (h < p) for p, h in zip(parent, head)
        )
        summary[name] = {
            "better": direction,
            "parent_median": p_q[1],
            "head_median": h_q[1],
            "parent_iqr": p_q[2] - p_q[0],
            "head_iqr": h_q[2] - h_q[0],
            "median_ratio": statistics.median(ratios) if ratios else None,
            "wins": wins,
            "pairs": len(pairs),
            # the head's median beats the parent's by more than the parent's IQR
            "beyond_parent_iqr": (
                h_q[1] - p_q[1] if direction == "higher" else p_q[1] - h_q[1]
            ) > p_q[2] - p_q[0],
        }
    return summary


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    repo = pathlib.Path(args.repo).resolve()
    scratch = repo / ".pairs_tmp"
    scratch.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix="pairs-", dir=scratch))
    try:
        trees = {"parent": work / "parent", "head": work / "head"}
        commits = {side: export(repo, rev, trees[side]) for side, rev in
                   (("parent", args.parent), ("head", args.head))}
        pairs: List[Dict[str, Any]] = []
        entry: Dict[str, Any] = {}
        for i in range(args.pairs):
            order = ("parent", "head") if i % 2 == 0 else ("head", "parent")
            results = {}
            for side in order:
                if args.workload:
                    results[side] = run_workload(trees[side], args, work / f"{side}.{i}.json")
                else:
                    results[side] = run_probe(trees[side], args, profile=False)
            if args.workload:
                better = results["head"]["better"]
                entry.setdefault("units", results["head"]["units"])
                entry.setdefault("environment", results["head"]["environment"])
                pair = {side: results[side]["metrics"] for side in ("parent", "head")}
                pair["correct"] = {side: results[side]["correct"] for side in ("parent", "head")}
            else:
                better = {"step_ms": "lower"}
                pair = {side: results[side] for side in ("parent", "head")}
                pair["sha256_equal"] = results["parent"]["sha256"] == results["head"]["sha256"]
            pair["first"] = order[0]
            pair["ratio"] = {
                name: pair["head"][name] / pair["parent"][name] if pair["parent"][name] else None
                for name in better
            }
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{name} {pair['parent'][name]:.4g} -> {pair['head'][name]:.4g}" for name in better
            ), file=sys.stderr)
        if args.tables and args.profile:
            entry["profile"] = {
                side: run_probe(trees[side], args, profile=True) for side in ("parent", "head")
            }
        if not args.workload:
            entry["environment"] = env_fingerprint(trees["head"])
        return {
            "measurement": measurement_key(args),
            "parent": {"rev": args.parent, "commit": commits["parent"]},
            "head": {"rev": args.head, "commit": commits["head"]},
            "settings": {
                "pairs": args.pairs, "seed": args.seed, "seconds": args.seconds,
                "steps": args.steps if args.tables else None, "smoke": args.smoke,
                "order": "parent first in even pairs, head first in odd ones",
                "blas_threads": 1,
            },
            **entry,
            "pairs": pairs,
            "summary": summarize(pairs, better),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def env_fingerprint(tree: pathlib.Path) -> Dict[str, Any]:
    """``benchmarks/perf/env.py``'s fingerprint, read in ``tree``."""
    code = (
        "import json; from benchmarks.perf import env; env.prepare(); "
        "print(json.dumps(env.fingerprint()))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=tree, env=child_env(), check=True,
        capture_output=True, text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def measurement_key(args: argparse.Namespace) -> str:
    if args.workload:
        return f"workload {args.workload}" + (" traced" if args.trace else "")
    return f"step probe {args.tables} tables on {args.backend}"


def record(repo: pathlib.Path, pr: int, entry: Dict[str, Any]) -> pathlib.Path:
    """Add ``entry`` to ``BENCH_<pr>.json``, replacing one of the same measurement."""
    path = repo / f"BENCH_{pr}.json"
    document = {"schema": SCHEMA, "pr": pr, "entries": []}
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    document["entries"] = [
        e for e in document["entries"] if e["measurement"] != entry["measurement"]
    ] + [entry]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return path


def history(repo: pathlib.Path) -> str:
    """A Markdown table with one row per entry of every ``BENCH_*.json``."""
    rows = [
        "| PR | parent → head | measurement | metric | parent → head (median) | ratio | wins |",
        "|---|---|---|---|---|---|---|",
    ]
    paths = sorted(repo.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        for entry in document["entries"]:
            for name in headline(entry):
                s = entry["summary"][name]
                rows.append(
                    f"| {document['pr']} | {entry['parent']['commit'][:7]} → "
                    f"{entry['head']['commit'][:7]} | {entry['measurement']} | {name} | "
                    f"{s['parent_median']:.4g} → {s['head_median']:.4g} | "
                    f"{s['median_ratio']:.3f} | {s['wins']}/{s['pairs']} |"
                )
    return "\n".join(rows)


def headline(entry: Dict[str, Any]) -> List[str]:
    """The metrics a History row shows: the step time of a probe, else
    the throughput and the CPU time per operation."""
    names = ["step_ms", "ops_per_s", "cpu_ms_per_op"]
    return [name for name in names if name in entry["summary"]]


def parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", default=str(REPO_ROOT), help="the git repository (default: this one)")
    parser.add_argument("--history", action="store_true", help="print the History table and exit")
    parser.add_argument("--pr", type=int, help="write the entry to BENCH_<pr>.json")
    parser.add_argument("--parent", help="the parent revision")
    parser.add_argument("--head", default="HEAD", help="the head revision (default HEAD)")
    parser.add_argument("--workload", help="a benchmarks/perf workload")
    parser.add_argument("--trace", action="store_true",
                        help="record the benchmark's per-layer metrics (a traced run) instead")
    parser.add_argument("--tables", type=int, help="step probe: the quickstart's table count")
    parser.add_argument("--backend", default="serial", help="step probe: the backend (default serial)")
    parser.add_argument("--steps", type=int, default=100, help="step probe: steps per run (default 100)")
    parser.add_argument("--profile", action="store_true", help="step probe: add a cProfile run per side")
    parser.add_argument("--pairs", type=int, default=10, help="alternated pairs (default 10)")
    parser.add_argument("--seed", type=int, default=0, help="the seed of every run (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="the benchmark's window (default: its own; 1 with --smoke)")
    parser.add_argument("--smoke", action="store_true", help="tiny runs, for the tool's test")
    args = parser.parse_args(argv)
    if not args.history:
        if args.pr is None or args.parent is None:
            parser.error("--pr and --parent are required")
        if bool(args.workload) == bool(args.tables):
            parser.error("give one of --workload and --tables")
        if args.pairs < 1 or args.steps <= PROBE_WARMUP + 1:
            parser.error(f"--pairs must be >= 1 and --steps > {PROBE_WARMUP + 1}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse(argv)
    repo = pathlib.Path(args.repo).resolve()
    if args.history:
        print(history(repo))
        return 0
    if args.seconds is None and args.workload:
        args.seconds = 1.0 if args.smoke else default_seconds(repo)
    path = record(repo, args.pr, measure(args))
    print(f"wrote {path}", file=sys.stderr)
    return 0


def default_seconds(repo: pathlib.Path) -> float:
    """The benchmark's own run length (``BENCHMARK.json``'s ``run_seconds``)."""
    with open(repo / "BENCHMARK.json", encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


if __name__ == "__main__":
    sys.exit(main())
