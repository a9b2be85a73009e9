"""A fixed computation timed next to the measured work, to take out the box.

The boxes this benchmark runs on change speed under it: the same 30 ms
of arithmetic reads 23 ms in one five-second stretch and 37 ms in the
next, and whole minutes run a third slower than the minutes before (CPU
time stretches with the wall clock, so it is the core that slowed, not
the process that waited).  A median over an 18 s window forgets the
short bursts but not the slow drift, and the drift is larger than any
regression bound worth having.

So every measured window is bracketed by timings of a kernel (:func:`sample`), a
small fixed mix of what the program itself does (small BLAS calls,
elementwise numpy, interpreted Python), and the window's times are
multiplied by ``REFERENCE_S / (what the kernel took)``: they read as if
taken on a core that runs the kernel in exactly ``REFERENCE_S``.  A
change to the program moves the scaled numbers by the same factor as
the raw ones (the kernel never runs the program), a change of the box's
speed moves them hardly at all.  Raw numbers stay in the ``--out``
record next to the scaled ones.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Sequence

#: what the kernel takes on the box the benchmark was sized on; scaled
#: times are times on a core that takes exactly this long
REFERENCE_S = 0.020

_lock = threading.Lock()


def sample() -> float:
    """Seconds one run of the kernel takes now.

    One caller at a time: two threads timing it at once would time each
    other's hold on the interpreter lock.
    """
    import numpy as np  # not at module level: env.prepare() pins BLAS first

    matrix = np.random.default_rng(0).random((64, 64))
    with _lock:
        start = time.perf_counter()
        total = 0.0
        for _ in range(1000):
            total += float(np.maximum(matrix @ matrix, 0.0).sum())
        for i in range(100_000):
            total += i * i
        return time.perf_counter() - start


def samples(count: int) -> List[float]:
    return [sample() for _ in range(count)]


def scale(samples: Sequence[float]) -> float:
    """Factor that turns times taken alongside ``samples`` into reference times."""
    return REFERENCE_S / statistics.median(samples)
