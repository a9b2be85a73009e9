"""CPU time and peak memory of a process and its descendants, from /proc.

The work a workload measures is not always in the benchmark's own
process: ``search_pooled`` scores in pool workers and ``service_jobs``
runs its searches in the daemon.  Pool workers and the daemon outlive
the measured window, so ``RUSAGE_CHILDREN`` (which only counts children
that were waited for) reads nothing for them.
"""

from __future__ import annotations

import os
from typing import Dict, List

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    """Fields of ``/proc/<pid>/stat`` after the parenthesised command."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
        return handle.read().rsplit(")", 1)[1].split()


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant of it."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parent = int(_stat_fields(int(entry))[1])
        except (OSError, IndexError, ValueError):
            continue  # exited while we were listing
        children.setdefault(parent, []).append(int(entry))
    tree = [root]
    for pid in tree:
        tree.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pid: int) -> float:
    """User + system CPU of ``pid`` and of the children it has reaped."""
    try:
        fields = _stat_fields(pid)
    except OSError:
        return 0.0
    # utime, stime, cutime, cstime are fields 14-17 of the full line
    return sum(int(value) for value in fields[11:15]) / _TICKS_PER_S


def tree_cpu_seconds(root: int) -> float:
    return sum(cpu_seconds(pid) for pid in process_tree(root))


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of ``pid`` (``VmHWM``), in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_peak_rss_mb(root: int) -> float:
    """Summed high-water marks of ``root`` and its live descendants."""
    return sum(peak_rss_mb(pid) for pid in process_tree(root))
