"""Every size the benchmark uses, in one place.

A *repeat* is the fixed unit of measured work (one whole search, one
fleet of specializations); a run measures repeats until ``--seconds``
have passed, never fewer than ``min_repeats``.  The driver's matrix is
4 + 22 x 4 runs under one 3420 s cap, so a run (imports, set-up three
times over, measured window, checks, teardown) has to stay near 30 s.
The steps per search are therefore smaller than ISSUE 11 sketched
(300/150), and the number of repeats and jobs is what ``--seconds``
buys rather than a constant; the regime is the same (every sampled
architecture is still new at these horizons: 0 tape and pricing hits).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

#: the fleet targets ``specialize_fleet`` prices candidates for
FLEET_PLATFORMS: Tuple[str, ...] = ("tpu_v4", "tpu_v4i", "gpu_v100")

#: pool workers (``search_pooled``) and client threads (``service_jobs``)
PARALLELISM = min(2, os.cpu_count() or 1)

#: a serial repeat is ``disturbed`` when this share of its wall clock
#: was not spent on the CPU by the benchmark process
DISTURBED_IDLE_SHARE = 0.10

#: ``--seconds`` when the caller does not say (``BENCHMARK.json`` agrees)
RUN_SECONDS = 18


@dataclass(frozen=True)
class Sizes:
    """Work per repeat and per set-up, for one size class."""

    #: steps of the quickstart DLRM search (``search_train``/``search_pooled``)
    search_steps: int
    #: elastic supernet training behind ``specialize_fleet``'s artifact
    elastic_steps: int
    #: steps per target platform in one fleet repeat
    specialize_steps: int
    #: steps per measured window of a search repeat (divides the above)
    chunk_steps: int
    #: whole searches a fresh pool runs, once, before ``search_pooled`` measures
    pool_settle_repeats: int
    #: steps of one service job, and steps between its durable snapshots
    job_steps: int
    job_checkpoint_every: int
    #: discarded jobs each client submits before the measured window
    warmup_jobs: int
    #: floor on repeats (searches) and on jobs per client (service)
    min_repeats: int
    min_jobs: int
    #: how often the repeatable part of set-up runs; ``setup_s`` takes
    #: the median
    setup_repeats: int
    #: service jobs checked against ``one_shot_payload``
    verified_jobs: int
    #: iterations of each isolated probe
    probe_iterations: int


FULL = Sizes(
    search_steps=150,
    elastic_steps=120,
    specialize_steps=50,
    chunk_steps=25,
    pool_settle_repeats=2,
    job_steps=10,
    job_checkpoint_every=5,
    warmup_jobs=1,
    min_repeats=3,
    min_jobs=4,
    setup_repeats=3,
    verified_jobs=4,
    probe_iterations=20,
)

#: ``--smoke``: the whole matrix in well under 30 s, for the self-tests
SMOKE = Sizes(
    search_steps=20,
    elastic_steps=10,
    specialize_steps=10,
    chunk_steps=10,
    pool_settle_repeats=0,
    job_steps=3,
    job_checkpoint_every=1,
    warmup_jobs=0,
    min_repeats=1,
    min_jobs=2,
    setup_repeats=1,
    verified_jobs=1,
    probe_iterations=3,
)
