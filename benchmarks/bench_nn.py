"""Autograd hot path: what the compiled tape costs and buys per train step.

The search hot loop spends its step budget inside ``repro.nn``: one
supernet forward, one backward, one optimizer step per core group.
This benchmark times that exact train step on the DLRM super-network
with the graph rebuilt eagerly every step (``REPRO_TAPE=0``, the
baseline) and with per-architecture compiled-graph replay (the
default), on the two kinds of traffic a search produces:

* **fresh architectures** — an exploring search: no architecture
  repeats, so the tape has nothing to replay and must cost (almost)
  nothing.  Asserted contract: tape <= 1.15x eager per step (a cache
  that compiled on first sight measured 1.3-1.7x here).
* **repeating architectures** — a converged search: four architectures
  in rotation, every graph replayed.  The tape/eager ratio is reported
  from this run, not gated.

Either way the two configurations train identically: replay runs the
same NumPy expressions on the same operands in the same order, so the
losses are bit-identical.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis import format_table
from repro.data import CtrTaskConfig, CtrTeacher
from repro.nn import Adam
from repro.nn.tape import TAPE_ENV
from repro.searchspace import DlrmSpaceConfig, dlrm_search_space
from repro.supernet import DlrmSuperNetwork, DlrmSupernetConfig

from .common import emit, emit_json

pytestmark = pytest.mark.slow

NUM_TABLES = 4
BATCH_SIZE = 64
NUM_ARCHS = 4      # rotating sampled architectures, as a converging search sees
WARMUP_STEPS = 8   # covers first sight + compile of every (arch, shape) graph
TIMED_STEPS = 80
MAX_FRESH_OVERHEAD = 1.15  # tape / eager per step when nothing repeats


def _train_steps(tape: bool, num_archs: int):
    """Timed-step seconds + per-step losses of the supernet train step,
    rotating through ``num_archs`` distinct sampled architectures."""
    import os

    os.environ[TAPE_ENV] = "1" if tape else "0"
    try:
        space = dlrm_search_space(
            DlrmSpaceConfig(num_tables=NUM_TABLES, num_dense_stacks=2)
        )
        rng = np.random.default_rng(11)
        archs = []
        while len(archs) < num_archs:
            arch = space.sample(rng)
            if arch not in archs:
                archs.append(arch)
        teacher = CtrTeacher(
            CtrTaskConfig(num_tables=NUM_TABLES, batch_size=BATCH_SIZE, seed=5)
        )
        batches = [teacher.next_batch() for _ in range(WARMUP_STEPS + TIMED_STEPS)]
        net = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES, seed=3))
        optimizer = Adam(net.parameters(), lr=1e-3)

        losses = []
        timed = []
        for step, batch in enumerate(batches):
            arch = archs[step % num_archs]
            started = time.perf_counter()
            optimizer.zero_grad()
            loss = net.loss(arch, batch.inputs, batch.labels)
            loss.backward()
            optimizer.step()
            step_seconds = time.perf_counter() - started
            if step >= WARMUP_STEPS:
                timed.append(step_seconds)
            losses.append(loss.item())
        return timed, losses
    finally:
        os.environ.pop(TAPE_ENV, None)


def run():
    # Medians throughout: near-equal numbers against a tight bound, and
    # one stalled step in 80 would decide a comparison of means.
    _train_steps(tape=False, num_archs=NUM_ARCHS)  # untimed: the process's cold start
    rows = {}
    for traffic, num_archs in (
        ("repeating", NUM_ARCHS),
        ("fresh", WARMUP_STEPS + TIMED_STEPS),  # every step its own architecture
    ):
        eager_steps, eager_losses = _train_steps(tape=False, num_archs=num_archs)
        tape_steps, tape_losses = _train_steps(tape=True, num_archs=num_archs)
        assert eager_losses == tape_losses  # same expressions: bit-identical
        rows[traffic] = (float(np.median(eager_steps)), float(np.median(tape_steps)))

    payload = {
        "num_tables": NUM_TABLES,
        "batch_size": BATCH_SIZE,
        "num_archs": NUM_ARCHS,
        "timed_steps": TIMED_STEPS,
        "losses_match": True,
        "max_fresh_overhead": MAX_FRESH_OVERHEAD,
    }
    for traffic, (eager_step, tape_step) in rows.items():
        payload[f"{traffic}_eager_step_ms"] = 1e3 * eager_step
        payload[f"{traffic}_tape_step_ms"] = 1e3 * tape_step
        payload[f"{traffic}_overhead"] = tape_step / max(eager_step, 1e-12)
    table_rows = []
    for traffic in ("fresh", "repeating"):
        for mode, ratio in (("eager", 1.0), ("tape", payload[f"{traffic}_overhead"])):
            step_ms = payload[f"{traffic}_{mode}_step_ms"]
            table_rows.append(
                [f"{traffic} archs: {mode}", f"{step_ms:.2f}", f"{ratio:.2f}x"]
            )
    table = format_table(["configuration", "per step (ms)", "tape / eager"], table_rows)
    emit("nn_hot_path", table)
    emit_json("nn_hot_path", payload)
    return payload


def test_nn_hot_path(benchmark):
    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    assert payload["fresh_overhead"] <= MAX_FRESH_OVERHEAD, (
        f"on never-repeating architectures the tape costs "
        f"{payload['fresh_overhead']:.2f}x an eager step "
        f"(contract: <= {MAX_FRESH_OVERHEAD}x)"
    )
