"""Order statistics the runner and the comparator share (no numpy)."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: a percentile is reported only with at least this many samples above it
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, q: int) -> int:
    """How many of ``count`` samples lie above the whole percentile ``q``."""
    return count * (100 - q) // 100


def highest_percentile(count: int) -> int:
    """The highest whole percentile with ``MIN_SAMPLES_BEYOND`` samples
    beyond it (50 at least: below the median there is no tail to report).

    At 50 samples this is 80, at 1000 it is 99; under 20 samples no
    tail is supported and the median is all a run may report.
    """
    best = 50
    for q in range(50, 100):
        if samples_beyond(count, q) >= MIN_SAMPLES_BEYOND:
            best = q
    return best


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as the driver takes them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third
