"""Compare two sets of runs, metric by metric and workload by workload.

A *set* is what ``--out`` wrote: the records of one or more runs of each
workload (``--runs 10`` gives the ten the verdicts below need to mean
anything).  Two sets compare only if they were taken in the same
environment; the commit is allowed to differ, that is the point.

Verdict per (end-to-end metric, workload), ``A`` being the parent:

``regressed``
    B's median is worse than A's by more than the metric's bound.
``unresolved``
    the run-to-run spread of either side (interquartile distance over
    the median) is wider than the bound, so the bound cannot be checked
    — unless every run of B reads better than every run of A.
``improved``
    B's median is better by more than A's own interquartile distance
    and B wins at least nine tenths of the runs paired by position.
``same``
    none of the above.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from . import env
from .stats import quartiles

Key = Tuple[str, str]  # (metric, workload)


@dataclass(frozen=True)
class Summary:
    values: Tuple[float, ...]
    first: float
    median: float
    third: float

    @property
    def spread(self) -> float:
        return (self.third - self.first) / abs(self.median) if self.median else 0.0


def summarize(document: Dict[str, Any]) -> Dict[Key, Summary]:
    """Quartiles of every end-to-end metric over a set's untraced runs."""
    values: Dict[Key, List[float]] = {}
    for record in document["runs"]:
        if record["trace"]:
            continue
        for metric, entry in record["end_to_end"].items():
            values.setdefault((metric, record["workload"]), []).append(entry["value"])
    return {
        key: Summary(tuple(series), *quartiles(series)) for key, series in values.items()
    }


def verdict(parent: Summary, change: Summary, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    # positive: the change reads worse
    worsening = sign * (change.median - parent.median) / abs(parent.median)
    if worsening > bound:
        return "regressed"
    if sign > 0:
        clear_win = max(change.values) < min(parent.values)
    else:
        clear_win = min(change.values) > max(parent.values)
    if max(parent.spread, change.spread) > bound and not clear_win:
        return "unresolved"
    pairs = list(zip(parent.values, change.values))
    wins = sum(sign * (b - a) < 0 for a, b in pairs)
    if (
        -worsening * abs(parent.median) > parent.third - parent.first
        and wins >= 0.9 * len(pairs)
    ):
        return "improved"
    return "same"


def contract_of(document: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """``{metric: {"better", "bound", "unit"}}`` the set was taken under."""
    return {entry["name"]: entry for entry in document["contract"]["end_to_end"]}


def spread_rows(document: Dict[str, Any]) -> List[str]:
    """One row per (metric, workload) of a single set: is it steady?"""
    contract = contract_of(document)
    rows = [
        f"{'metric':16s} {'workload':18s} {'n':>3s} {'q1':>12s} {'median':>12s} "
        f"{'q3':>12s} {'spread':>8s} {'bound':>6s}"
    ]
    for (metric, workload), summary in sorted(summarize(document).items()):
        bound = contract[metric]["bound"]
        note = "" if summary.spread <= bound / 3 else "  (over a third of the bound)"
        rows.append(
            f"{metric:16s} {workload:18s} {len(summary.values):3d} "
            f"{summary.first:12.4f} {summary.median:12.4f} {summary.third:12.4f} "
            f"{summary.spread:8.2%} {bound:6.2f}{note}"
        )
    return rows


def compare(parent: Dict[str, Any], change: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    """``(rows, verdicts)`` for every (metric, workload) both sets hold."""
    contract = contract_of(parent)
    before, after = summarize(parent), summarize(change)
    rows = [
        f"{'metric':16s} {'workload':18s} {'A q1':>11s} {'A median':>11s} {'A q3':>11s} "
        f"{'B q1':>11s} {'B median':>11s} {'B q3':>11s} {'bound':>6s}  verdict"
    ]
    verdicts = []
    for key in sorted(set(before) & set(after)):
        metric, workload = key
        a, b = before[key], after[key]
        entry = contract[metric]
        verdicts.append(verdict(a, b, entry["better"], entry["bound"]))
        rows.append(
            f"{metric:16s} {workload:18s} {a.first:11.4f} {a.median:11.4f} {a.third:11.4f} "
            f"{b.first:11.4f} {b.median:11.4f} {b.third:11.4f} {entry['bound']:6.2f}  "
            f"{verdicts[-1]}"
        )
    return rows, verdicts


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf compare", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("parent", help="--out file of the parent's runs (A)")
    parser.add_argument("change", help="--out file of the change's runs (B)")
    args = parser.parse_args(argv)
    documents = []
    for path in (args.parent, args.change):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    parent, change = documents
    differing = env.incomparable(parent["environment"], change["environment"])
    if differing:
        print("refusing to compare runs taken in different environments:", file=sys.stderr)
        for key, (first, second) in differing.items():
            print(f"  {key}: {first!r} != {second!r}", file=sys.stderr)
        return 2
    rows, verdicts = compare(parent, change)
    print("\n".join(rows))
    return 1 if "regressed" in verdicts else 0
