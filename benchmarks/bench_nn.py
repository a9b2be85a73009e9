"""Autograd hot-path contract: tape reuse + fused kernels >= 1.5x.

The search hot loop spends its step budget inside ``repro.nn``: one
supernet forward, one backward, one optimizer step per core group.
This benchmark times that exact train step on the DLRM super-network in
two configurations:

* **baseline** — the pre-overhaul path: composed multi-node layers
  (``FUSED_KERNELS`` off) with the graph rebuilt eagerly every step
  (``REPRO_TAPE=0``);
* **optimized** — fused single-node kernels with per-architecture
  compiled-graph replay (the defaults).

Asserted contract: the optimized step is >= 1.5x faster, and the two
configurations train identically (same losses to float64 round-off —
the kernels evaluate the same expressions, fusion only removes Python
graph construction and intermediate allocations).

That contract is the converged search: four architectures in rotation,
every graph replayed.  An exploring search is the opposite traffic — no
architecture repeats — and there the tape must cost (almost) nothing:
a second pair of rows times the fused step on a stream of all-new
architectures with the tape on and off, asserting tape <= 1.15x eager
(a cache that compiled on first sight measured 1.3-1.7x here).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis import format_table
from repro.data import CtrTaskConfig, CtrTeacher
from repro.nn import Adam
from repro.nn import layers as nn_layers
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
MIN_SPEEDUP = 1.5
MAX_FRESH_OVERHEAD = 1.15  # tape / eager per step when nothing repeats


def _train_steps(fused: bool, tape: bool, num_archs: int = NUM_ARCHS):
    """Timed-step seconds + per-step losses of the supernet train step,
    rotating through ``num_archs`` distinct sampled architectures."""
    import os

    os.environ[TAPE_ENV] = "1" if tape else "0"
    saved_fused = nn_layers.FUSED_KERNELS
    nn_layers.FUSED_KERNELS = fused
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
        nn_layers.FUSED_KERNELS = saved_fused
        os.environ.pop(TAPE_ENV, None)


def run():
    baseline_steps, baseline_losses = _train_steps(fused=False, tape=False)
    optimized_steps, optimized_losses = _train_steps(fused=True, tape=True)
    baseline_step = float(np.mean(baseline_steps))
    optimized_step = float(np.mean(optimized_steps))
    # Every step its own architecture: nothing for the tape to replay.
    # Two near-equal numbers against a tight bound, so medians: one
    # stalled step in 80 would decide a comparison of means.
    no_repeats = WARMUP_STEPS + TIMED_STEPS
    fresh_eager_steps, fresh_eager_losses = _train_steps(
        fused=True, tape=False, num_archs=no_repeats
    )
    fresh_tape_steps, fresh_tape_losses = _train_steps(
        fused=True, tape=True, num_archs=no_repeats
    )
    fresh_eager_step = float(np.median(fresh_eager_steps))
    fresh_tape_step = float(np.median(fresh_tape_steps))
    assert fresh_eager_losses == fresh_tape_losses  # same expressions: bit-identical

    # Fusion and replay must not change what is computed: the same
    # NumPy expressions run in the same order, so the training curves
    # agree to float64 round-off.
    np.testing.assert_allclose(
        baseline_losses, optimized_losses, rtol=1e-9, atol=1e-12
    )

    payload = {
        "num_tables": NUM_TABLES,
        "batch_size": BATCH_SIZE,
        "num_archs": NUM_ARCHS,
        "timed_steps": TIMED_STEPS,
        "baseline_step_ms": 1e3 * baseline_step,
        "optimized_step_ms": 1e3 * optimized_step,
        "speedup": baseline_step / max(optimized_step, 1e-12),
        "min_speedup": MIN_SPEEDUP,
        "losses_match": True,
        "fresh_eager_step_ms": 1e3 * fresh_eager_step,
        "fresh_tape_step_ms": 1e3 * fresh_tape_step,
        "fresh_overhead": fresh_tape_step / max(fresh_eager_step, 1e-12),
        "max_fresh_overhead": MAX_FRESH_OVERHEAD,
    }
    table = format_table(
        ["configuration", "per step (ms)", "speedup"],
        [
            ["composed + eager rebuild", f"{payload['baseline_step_ms']:.2f}", "1.0x"],
            [
                "fused + tape replay",
                f"{payload['optimized_step_ms']:.2f}",
                f"{payload['speedup']:.2f}x",
            ],
            [
                "fresh archs: fused + eager",
                f"{payload['fresh_eager_step_ms']:.2f}",
                "1.0x",
            ],
            [
                "fresh archs: fused + tape",
                f"{payload['fresh_tape_step_ms']:.2f}",
                f"{1 / payload['fresh_overhead']:.2f}x",
            ],
        ],
    )
    emit("nn_hot_path", table)
    emit_json("nn_hot_path", payload)
    return payload


def test_nn_hot_path(benchmark):
    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    assert payload["speedup"] >= MIN_SPEEDUP, (
        f"tape+fused train step only {payload['speedup']:.2f}x over the "
        f"composed eager path (contract: >= {MIN_SPEEDUP}x)"
    )
    assert payload["fresh_overhead"] <= MAX_FRESH_OVERHEAD, (
        f"on never-repeating architectures the tape costs "
        f"{payload['fresh_overhead']:.2f}x an eager step "
        f"(contract: <= {MAX_FRESH_OVERHEAD}x)"
    )
