"""Command line of the benchmark.

``python3 benchmarks/perf/__main__.py`` (or ``python3 -m benchmarks.perf``)::

    [--workload NAME ...] [--seed N] [--seconds S] [--trace [0|1]]
    [--runs N] [--smoke] [--out FILE]
    compare A.json B.json

One workload run once is measured in this process and its result is the
last line of standard output, as ``BENCHMARK.json``'s contract has it.
Anything more (several workloads, ``--runs``) is a matrix: each run is a
child process of the same command, so no run's memory high-water mark or
warmed caches leak into the next.  Either way the command forks first and
its parent half returns only once everything the run started has ended
(:mod:`.reaper`).

The exit code is non-zero only when a run was incorrect (an operation
failed, a fingerprint check did not hold) or could not start; never
because of a timing.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import signal
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

from . import compare, env, metrics, reaper
from .sizes import FULL, RUN_SECONDS, SMOKE

ENTRY_POINT = pathlib.Path(__file__).with_name("__main__.py")
CONTRACT_PATH = env.REPO_ROOT / "BENCHMARK.json"


def parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", action="append", choices=metrics.WORKLOADS, metavar="NAME",
        help=f"one of {', '.join(metrics.WORKLOADS)}; repeatable (default: all)",
    )
    parser.add_argument("--seed", type=int, default=0, help="makes the inputs (default 0)")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"length of the measured window (default {RUN_SECONDS}; 1 with --smoke)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="install the wrappers and report the per-layer metrics",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="runs per workload, with seeds SEED, SEED+1, ... (default 1)",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write every run's record here; a traced run's spans go next to it",
    )
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(RUN_SECONDS)
    args.workload = args.workload or list(metrics.WORKLOADS)
    return args


def trace_path_for(out: pathlib.Path, workload: str, seed: int) -> pathlib.Path:
    return out.with_name(f"{out.stem}.{workload}.{seed}.trace.json")


def run_child(
    args: argparse.Namespace, workload: str, seed: int, scratch: pathlib.Path
) -> Dict[str, Any]:
    """One run in a process of its own; its record comes back through a file."""
    record_path = scratch / f"{workload}.{seed}.json"
    command = [
        sys.executable, str(ENTRY_POINT),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(record_path),
    ]
    if args.smoke:
        command.append("--smoke")
    child = subprocess.Popen(command, stdin=subprocess.DEVNULL)
    try:
        child.wait()
    finally:
        if child.poll() is None:  # we are being interrupted: take it with us
            child.terminate()
            child.wait()
    if not record_path.exists():
        raise RuntimeError(f"run of {workload} (seed {seed}) exited {child.returncode}")
    with open(record_path, encoding="utf-8") as handle:
        record = json.load(handle)["runs"][0]
    spans = trace_path_for(record_path, workload, seed)
    if args.out is not None and spans.exists():
        shutil.move(spans, trace_path_for(args.out, workload, seed))
    return record


def document(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    with open(CONTRACT_PATH, encoding="utf-8") as handle:
        contract = json.load(handle)
    return {
        "schema": 1,
        "environment": records[0]["environment"],
        "contract": contract,
        "runs": records,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    args = parse(argv)
    try:
        env.prepare()
    except env.BenchmarkUnavailable as error:
        print(f"benchmarks.perf: {error}", file=sys.stderr)
        return 2
    # From here on this is the child of a process that waits for it and
    # for everything it leaves behind (the resource tracker, for one).
    reaper.contain()
    # SIGTERM unwinds like Ctrl-C does, so scratch space, daemon and
    # pools are cleaned up by the same ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from .runner import driver_line, render, run_workload

    plan = [
        (workload, args.seed + offset)
        for workload in args.workload
        for offset in range(args.runs)
    ]
    records = []
    if len(plan) == 1:
        workload, seed = plan[0]
        spans = trace_path_for(args.out, workload, seed) if args.out and args.trace else None
        records.append(
            run_workload(
                workload, seed, args.seconds, bool(args.trace),
                SMOKE if args.smoke else FULL, spans,
            )
        )
        print(render(records[0]))
    else:
        with env.scratch_dir() as scratch:
            for workload, seed in plan:
                records.append(run_child(args, workload, seed, scratch))
    result = document(records)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
    if args.runs > 1 and not args.trace:
        print("\n".join(compare.spread_rows(result)))
    print(json.dumps(driver_line(records[-1])))
    return 0 if all(record["correct"] for record in records) else 1
