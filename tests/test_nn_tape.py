"""Tape/graph reuse: replayed graphs must be bit-identical to eager.

The contract under test (DESIGN.md §11): compiling a supernet's
forward+loss once per architecture and replaying it with fresh batches
changes *nothing* about the numbers — losses, qualities, gradients, and
whole search trajectories match the eager rebuild-every-step path
exactly, across optimizer updates, backend choices, and crash/resume.
"""

import os

import numpy as np
import pytest

from repro.core import (
    PerformanceObjective,
    SearchConfig,
    SingleStepSearch,
    relu_reward,
)
from repro.data import (
    CtrTaskConfig,
    CtrTeacher,
    SequenceTaskConfig,
    SequenceTeacher,
    SingleStepPipeline,
)
from repro.nn import (
    Adam,
    TapeCache,
    Tensor,
    compile_graph,
    mse,
)
from repro.nn.tape import EMPTY_TAPE_STATS, CompiledGraph
from repro.searchspace import DlrmSpaceConfig, dlrm_search_space
from repro.searchspace.cnn import CnnSpaceConfig, cnn_search_space
from repro.searchspace.vit import VitSpaceConfig, vit_search_space
from repro.supernet import (
    DlrmSuperNetwork,
    DlrmSupernetConfig,
    TransformerSuperNetwork,
    TransformerSupernetConfig,
)
from repro.supernet.vision import VisionSuperNetwork

NUM_TABLES = 2


def build_space():
    return dlrm_search_space(DlrmSpaceConfig(num_tables=NUM_TABLES, num_dense_stacks=2))


def ctr_batches(count, batch_size=16, seed=0):
    teacher = CtrTeacher(
        CtrTaskConfig(num_tables=NUM_TABLES, batch_size=batch_size, seed=seed)
    )
    return [teacher.next_batch() for _ in range(count)]


def eager(net):
    """``net`` with tape reuse off for this instance: every pass builds
    its graph afresh — the reference the replayed numbers must equal."""
    net.tape_compatible = False
    return net


def snapshot_grads(net):
    return [
        None if p.grad is None else p.grad.copy() for p in net.parameters()
    ]


def train_trace(net, arch, batches, seed_grad=1.0):
    """(losses, qualities, final params) over optimizer-updated steps."""
    optimizer = Adam(net.parameters(), lr=1e-2)
    losses, qualities = [], []
    for batch in batches:
        optimizer.zero_grad()
        loss = net.loss(arch, batch.inputs, batch.labels)
        loss.backward(np.asarray(seed_grad))
        optimizer.step()
        losses.append(loss.item())
        qualities.append(net.quality(arch, batch.inputs, batch.labels))
    return losses, qualities, [p.data.copy() for p in net.parameters()]


class TestCompiledGraphPrimitives:
    def test_replay_binds_fresh_inputs(self):
        w = Tensor(np.array([[2.0], [3.0]]), requires_grad=True)
        graph = compile_graph(
            lambda bufs: Tensor(bufs["x"]) @ w, {"x": np.zeros((1, 2))}
        )
        out = graph.run({"x": np.array([[1.0, 1.0]])})
        assert out.data.item() == 5.0
        out = graph.run({"x": np.array([[2.0, 0.0]])})
        assert out.data.item() == 4.0

    def test_replay_sees_updated_weights(self):
        w = Tensor(np.array([[1.0], [1.0]]), requires_grad=True)
        graph = compile_graph(
            lambda bufs: Tensor(bufs["x"]) @ w, {"x": np.ones((1, 2))}
        )
        assert graph.run({"x": np.ones((1, 2))}).data.item() == 2.0
        w.data[:] = 10.0
        assert graph.run({"x": np.ones((1, 2))}).data.item() == 20.0

    def test_shape_mismatch_rejected(self):
        graph = compile_graph(
            lambda bufs: Tensor(bufs["x"]).sum(), {"x": np.zeros((2, 2))}
        )
        with pytest.raises(ValueError, match="shape"):
            graph.run({"x": np.zeros((3, 2))})

    def test_cached_backward_matches_eager(self):
        x = np.array([[0.5, -1.5], [2.0, 0.25]])
        targets = np.array([[1.0], [0.0]])

        we = Tensor(np.array([[0.3], [-0.7]]), requires_grad=True)
        mse(Tensor(x) @ we, targets).backward()

        wt = Tensor(np.array([[0.3], [-0.7]]), requires_grad=True)
        graph = compile_graph(
            lambda bufs: mse(Tensor(bufs["x"]) @ wt, bufs["t"]),
            {"x": x, "t": targets},
        )
        for _ in range(3):  # replays must not change the result
            wt.zero_grad()
            graph.run({"x": x, "t": targets}).backward()
        np.testing.assert_array_equal(we.grad, wt.grad)

    def test_gradient_buffers_reused_across_steps(self):
        w = Tensor(np.ones((2, 1)), requires_grad=True)
        graph = compile_graph(
            lambda bufs: (Tensor(bufs["x"]) @ w).sum(), {"x": np.ones((3, 2))}
        )
        graph.run({"x": np.ones((3, 2))}).backward()
        first_buf = w.grad
        w.zero_grad()
        graph.run({"x": 2 * np.ones((3, 2))}).backward()
        assert w.grad is first_buf  # same preallocated array, new values
        np.testing.assert_array_equal(w.grad, [[6.0], [6.0]])

    def test_tape_incompatible_host_never_consults_the_cache(self):
        net = eager(DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES)))
        arch = build_space().sample(np.random.default_rng(0))
        batch = ctr_batches(1)[0]
        for _ in range(3):  # a repeating key would compile on second sight
            net.loss(arch, batch.inputs, batch.labels)
        assert net.tape_stats() == EMPTY_TAPE_STATS


class TestTapeCache:
    def test_hit_miss_eviction_counters(self):
        cache = TapeCache(capacity=2)
        made = []

        def factory(tag):
            def build():
                graph = compile_graph(
                    lambda bufs: Tensor(bufs["x"]).sum(), {"x": np.zeros(1)}
                )
                made.append(tag)
                return graph

            return build

        def admit(key, tag):
            # First sight is declined (run eagerly); second sight builds.
            assert cache.get_or_build(key, factory(tag + "-first")) is None
            return cache.get_or_build(key, factory(tag))

        graph = admit("a", "a")
        assert cache.get_or_build("a", factory("a2")) is graph  # hit
        admit("b", "b")
        admit("c", "c")  # evicts "a"
        admit("a", "a3")  # an evicted key starts over: sight, then rebuild
        assert made == ["a", "b", "c", "a3"]
        assert cache.stats() == {
            "hits": 1,
            "misses": 8,
            "compiles": 4,
            "evictions": 2,
            "size": 2,
        }

    def test_unrepeated_keys_build_nothing(self):
        cache = TapeCache(capacity=2)

        def factory():
            raise AssertionError("a key seen once must not compile")

        for key in range(100):
            assert cache.get_or_build(key, factory) is None
        assert cache.stats() == {
            "hits": 0,
            "misses": 100,
            "compiles": 0,
            "evictions": 0,
            "size": 0,
        }
        # Only a bounded window of recent keys is remembered.
        assert len(cache._seen) == TapeCache._SEEN_PER_SLOT * cache.capacity
        assert cache.get_or_build(0, factory) is None  # forgotten: first sight again

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TapeCache(capacity=0)


class TestSupernetTapeEquivalence:
    def test_dlrm_train_trace_bit_identical(self):
        space = build_space()
        rng = np.random.default_rng(7)
        archs = [space.sample(rng) for _ in range(3)]
        batches = ctr_batches(9)

        eager_net = eager(DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES)))
        untaped = [
            train_trace(eager_net, arch, batches[i::3], seed_grad=0.25)
            for i, arch in enumerate(archs)
        ]

        tape_net = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES))
        taped = [
            train_trace(tape_net, arch, batches[i::3], seed_grad=0.25)
            for i, arch in enumerate(archs)
        ]

        stats = tape_net.tape_stats()
        assert stats["compiles"] == 6  # one loss + one forward graph per arch
        assert stats["misses"] == 12  # each: first sight, then the compile
        assert stats["hits"] == 6  # each graph's third batch replays
        for (el, eq, ep), (tl, tq, tp) in zip(untaped, taped):
            assert el == tl
            assert eq == tq
            for a, b in zip(ep, tp):
                np.testing.assert_array_equal(a, b)

    def test_vision_train_trace_bit_identical(self):
        space = cnn_search_space(CnnSpaceConfig(num_blocks=2))
        arch = space.sample(np.random.default_rng(3))
        rng = np.random.default_rng(11)
        batches = [
            (
                {"x": rng.normal(size=(8, 16))},
                rng.integers(0, 4, size=8),
            )
            for _ in range(6)
        ]

        def run(net):
            optimizer = Adam(net.parameters(), lr=1e-2)
            losses = []
            for inputs, labels in batches:
                optimizer.zero_grad()
                loss = net.loss(arch, inputs, labels)
                loss.backward()
                optimizer.step()
                losses.append(loss.item())
                losses.append(net.quality(arch, inputs, labels))
            return losses, [p.data.copy() for p in net.parameters()]

        eager_vals, eager_params = run(eager(VisionSuperNetwork()))
        tape_net = VisionSuperNetwork()
        tape_vals, tape_params = run(tape_net)

        assert tape_net.tape_stats()["hits"] > 0
        assert eager_vals == tape_vals
        for a, b in zip(eager_params, tape_params):
            np.testing.assert_array_equal(a, b)

    def test_loss_many_unequal_sizes_bypasses_tape(self):
        space = build_space()
        arch = space.sample(np.random.default_rng(1))
        net = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES))
        small = ctr_batches(1, batch_size=8)[0]
        large = ctr_batches(1, batch_size=16, seed=5)[0]

        combined = net.loss_many(
            arch,
            [small.inputs, large.inputs],
            [small.labels, large.labels],
        )
        loss_a = net.loss_from_logits(net.forward(arch, small.inputs), small.labels)
        loss_b = net.loss_from_logits(net.forward(arch, large.inputs), large.labels)
        # stack_mean's left-fold matches the old (a + b) * 0.5 chain.
        expected = (loss_a + loss_b) * 0.5
        assert combined.item() == expected.item()
        # And the per-batch losses are independent nodes, not two views
        # of one compiled graph output.
        net.zero_grad()
        combined.backward()
        assert any(p.grad is not None for p in net.parameters())

    def test_loss_many_equal_sizes_uses_compiled_stacked_pass(self):
        space = build_space()
        arch = space.sample(np.random.default_rng(1))
        net = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES))
        b1, b2 = ctr_batches(2)
        net.loss_many(arch, [b1.inputs, b2.inputs], [b1.labels, b2.labels])
        net.loss_many(arch, [b1.inputs, b2.inputs], [b2.labels, b1.labels])
        net.loss_many(arch, [b2.inputs, b1.inputs], [b2.labels, b1.labels])
        stats = net.tape_stats()
        assert stats == {
            "hits": 1,
            "misses": 2,
            "compiles": 1,
            "evictions": 0,
            "size": 1,
        }

    def test_quality_many_slices_match_per_batch(self):
        space = build_space()
        arch = space.sample(np.random.default_rng(2))
        net = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES))
        batches = ctr_batches(3)
        stacked = net.quality_many(
            arch,
            [b.inputs for b in batches],
            [b.labels for b in batches],
        )
        singles = [net.quality(arch, b.inputs, b.labels) for b in batches]
        assert stacked == singles


class TestAdmissionOnSecondSight:
    """A key compiles only once it repeats; results never depend on it."""

    def test_unrepeated_architectures_compile_nothing(self, monkeypatch):
        def no_graph(self, *args, **kwargs):
            raise AssertionError("an architecture seen once must not compile")

        monkeypatch.setattr(CompiledGraph, "__init__", no_graph)
        space = build_space()
        rng = np.random.default_rng(5)
        net = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES))
        seen = set()
        for batch in ctr_batches(12):
            arch = space.sample(rng)
            while arch in seen:
                arch = space.sample(rng)
            seen.add(arch)
            net.zero_grad()
            qualities, loss = net.quality_and_loss_many(
                arch, [batch.inputs], [batch.labels]
            )
            loss.backward()
            net.quality(arch, batch.inputs, batch.labels)
        stats = net.tape_stats()
        assert stats["size"] == 0 and stats["compiles"] == 0
        assert stats["hits"] == 0 and stats["misses"] == 24

    def test_eager_then_compile_then_hit_all_bit_identical(self):
        arch = build_space().sample(np.random.default_rng(4))
        batches = ctr_batches(3)

        def run(net):
            trace = []
            for batch in batches:
                net.zero_grad()
                loss = net.loss(arch, batch.inputs, batch.labels)
                loss.backward(np.asarray(0.5))
                trace.append((loss.item(), snapshot_grads(net), net.tape_stats()))
            return trace

        untaped = run(eager(DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES))))
        taped = run(DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES)))

        progress = [
            (stats["hits"], stats["misses"], stats["compiles"], stats["size"])
            for _, _, stats in taped
        ]
        assert progress == [(0, 1, 0, 0), (0, 2, 1, 1), (1, 2, 1, 1)]
        for (eager_loss, eager_grads, _), (tape_loss, tape_grads, _) in zip(
            untaped, taped
        ):
            assert eager_loss == tape_loss
            assert_grads_equal(eager_grads, tape_grads)


def assert_grads_equal(expected, actual):
    assert len(expected) == len(actual)
    for want, got in zip(expected, actual):
        assert (want is None) == (got is None)
        if want is not None:
            np.testing.assert_array_equal(want, got)


def recording(calls, name, fn):
    """``fn``, noting each call in ``calls`` (instance-attribute spy)."""

    def spy(*args):
        calls.append(name)
        return fn(*args)

    return spy


def dlrm_case():
    arch = build_space().sample(np.random.default_rng(9))

    def batches(sizes):
        made = [ctr_batches(1, batch_size=n, seed=i)[0] for i, n in enumerate(sizes)]
        return [b.inputs for b in made], [b.labels for b in made]

    return (
        lambda: DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES)),
        arch,
        batches,
    )


def vision_case():
    arch = cnn_search_space(CnnSpaceConfig(num_blocks=2)).sample(
        np.random.default_rng(3)
    )

    def batches(sizes):
        rng = np.random.default_rng(11)
        return (
            [{"x": rng.normal(size=(n, 16))} for n in sizes],
            [rng.integers(0, 4, size=n) for n in sizes],
        )

    return VisionSuperNetwork, arch, batches


def transformer_case():
    arch = vit_search_space(VitSpaceConfig(num_tfm_blocks=1)).sample(
        np.random.default_rng(2)
    )

    def batches(sizes):
        made = [
            SequenceTeacher(
                SequenceTaskConfig(seq_len=8, batch_size=n, seed=i)
            ).next_batch()
            for i, n in enumerate(sizes)
        ]
        return [b.inputs for b in made], [b.labels for b in made]

    return (
        lambda: TransformerSuperNetwork(TransformerSupernetConfig(num_blocks=1)),
        arch,
        batches,
    )


class TestQualityAndLossMany:
    """The one-pass training form equals the two separate passes."""

    @pytest.mark.parametrize("warm_passes", [0, 1, 2], ids=["first", "compile", "hit"])
    @pytest.mark.parametrize(
        "sizes", [(16,), (16, 16, 16), (8, 16, 16)], ids=["one", "three", "unequal"]
    )
    @pytest.mark.parametrize("case", [dlrm_case, vision_case, transformer_case])
    def test_equals_quality_many_plus_loss_many(self, case, sizes, warm_passes):
        make_net, arch, make_batches = case()
        inputs_seq, labels_seq = make_batches(sizes)
        scale = np.asarray(len(sizes) / 4)

        reference = eager(make_net())
        want_qualities = reference.quality_many(arch, inputs_seq, labels_seq)
        want_loss = reference.loss_many(arch, inputs_seq, labels_seq)
        reference.zero_grad()
        want_loss.backward(scale)

        net = make_net()
        for _ in range(warm_passes):  # walk the loss key through admission
            net.loss_many(arch, inputs_seq, labels_seq)
        calls = []
        for name in ("quality_many", "loss_many"):
            setattr(net, name, recording(calls, name, getattr(net, name)))
        qualities, loss = net.quality_and_loss_many(arch, inputs_seq, labels_seq)
        net.zero_grad()
        loss.backward(scale)

        assert qualities == want_qualities
        assert loss.item() == want_loss.item()
        assert_grads_equal(snapshot_grads(reference), snapshot_grads(net))
        stats = net.tape_stats()
        if len(set(sizes)) > 1:
            # Unequal batches cannot share a stacked mean: two passes.
            assert calls == ["quality_many", "loss_many"]
            assert stats["compiles"] == 0  # one forward-key sight, eager losses
        else:
            assert calls == []
            assert (stats["hits"], stats["compiles"]) == {
                0: (0, 0),
                1: (0, 1),
                2: (1, 1),
            }[warm_passes]

    def test_eager_host_matches_the_two_passes_in_one_forward(self):
        from repro.supernet.mixture import MixtureSuperNetwork, mixture_search_space

        net = MixtureSuperNetwork()
        forwards = []
        net.forward = recording(forwards, "forward", net.forward)
        arch = mixture_search_space(net.config).sample(np.random.default_rng(0))
        rng = np.random.default_rng(1)
        inputs_seq = [
            {"x": rng.normal(size=(8, net.config.num_features))} for _ in range(2)
        ]
        labels_seq = [
            rng.integers(0, net.config.num_classes, size=8) for _ in range(2)
        ]
        qualities, loss = net.quality_and_loss_many(arch, inputs_seq, labels_seq)
        assert forwards == ["forward"]
        assert qualities == net.quality_many(arch, inputs_seq, labels_seq)
        assert loss.item() == net.loss_many(arch, inputs_seq, labels_seq).item()


def _mixture_space():
    from repro.supernet.mixture import MixtureSupernetConfig, mixture_search_space

    return mixture_search_space(MixtureSupernetConfig())


def mixture_case():
    from repro.supernet.mixture import MixtureSuperNetwork, MixtureSupernetConfig

    config = MixtureSupernetConfig()
    arch = _mixture_space().sample(np.random.default_rng(0))

    def batches(sizes):
        rng = np.random.default_rng(1)
        return (
            [{"x": rng.normal(size=(n, config.num_features))} for n in sizes],
            [rng.integers(0, config.num_classes, size=n) for n in sizes],
        )

    return MixtureSuperNetwork, arch, batches


#: the space each case samples from, for shards of several architectures
CASE_SPACES = {
    dlrm_case: build_space,
    vision_case: lambda: cnn_search_space(CnnSpaceConfig(num_blocks=2)),
    transformer_case: lambda: vit_search_space(VitSpaceConfig(num_tfm_blocks=1)),
    mixture_case: _mixture_space,
}


class TestGroupGradientReduce:
    """The contract remote training rests on (DESIGN.md §10): each
    group's gradient computed *from zero* — what a ``train_many`` task
    returns — and reduced in group order equals, bit for bit, the serial
    engine's accumulation of every group's backward into one buffer.
    It holds because every parameter receives one contribution per group
    pass; a supernet that ties a weight across two uses would break it
    here first."""

    @pytest.mark.parametrize("warm_passes", [0, 1, 2], ids=["first", "compile", "hit"])
    @pytest.mark.parametrize(
        "group_sizes", [(1, 1, 1), (3, 3, 3), (1, 3, 2)], ids=["one", "three", "unequal"]
    )
    @pytest.mark.parametrize(
        "case", [dlrm_case, vision_case, transformer_case, mixture_case]
    )
    def test_reduce_in_group_order_equals_serial_accumulation(
        self, case, group_sizes, warm_passes
    ):
        from repro.core.engine.worker import execute_stage_kind

        make_net, first_arch, make_batches = case()
        space = CASE_SPACES[case]()
        archs = [first_arch]
        rng = np.random.default_rng(21)
        while len(archs) < len(group_sizes):
            arch = space.sample(rng)
            if arch not in archs:
                archs.append(arch)
        inputs_seq, labels_seq = make_batches([16] * sum(group_sizes))
        shard, start = [], 0
        for slot, (arch, size) in enumerate(zip(archs, group_sizes)):
            span = slice(start, start + size)
            shard.append((arch, inputs_seq[span], labels_seq[span], size / 6, slot))
            start += size

        serial = make_net()
        serial.zero_grad()
        want_qualities = []
        for arch, inputs, labels, scale, _ in shard:
            qualities, loss = serial.quality_and_loss_many(arch, inputs, labels)
            loss.backward(np.asarray(scale))
            want_qualities.append(qualities)

        net = make_net()
        for _ in range(warm_passes):  # walk every group's key through admission
            for arch, inputs, labels, _, _ in shard:
                net.loss_many(arch, inputs, labels)
        params = net.parameters()  # a worker host walks them once, too
        held = [
            execute_stage_kind(net, "train_many", payload, params) for payload in shard
        ]
        net.zero_grad()
        for _, active, gradients in held:
            assert active == sorted(set(active))  # one gradient per parameter
            for i, gradient in zip(active, gradients):
                params[i]._accumulate(gradient)

        assert [qualities for qualities, _, _ in held] == want_qualities
        assert any(grad is not None for grad in snapshot_grads(net))
        assert_grads_equal(snapshot_grads(serial), snapshot_grads(net))


def capacity_cost(arch):
    cost = 1.0
    for t in range(NUM_TABLES):
        cost += 0.05 * arch[f"emb{t}/width_delta"]
    return {"step_time": max(0.1, cost)}


def build_search(backend, seed=0, telemetry=None, workers=None):
    teacher = CtrTeacher(
        CtrTaskConfig(num_tables=NUM_TABLES, batch_size=16, seed=seed)
    )
    return SingleStepSearch(
        space=build_space(),
        supernet=DlrmSuperNetwork(
            DlrmSupernetConfig(num_tables=NUM_TABLES, seed=seed)
        ),
        pipeline=SingleStepPipeline(teacher.next_batch),
        reward_fn=relu_reward([PerformanceObjective("step_time", 1.0, -0.5)]),
        performance_fn=capacity_cost,
        config=SearchConfig(
            steps=6,
            num_cores=4,
            warmup_steps=2,
            seed=seed,
            backend=backend,
            workers=workers,
            telemetry=telemetry,
        ),
    )


def result_fingerprint(result):
    return (
        [s.mean_reward for s in result.history],
        [s.mean_quality for s in result.history],
        [s.policy_entropy for s in result.history],
        result.final_architecture,
    )


class TestSearchLevelEquivalence:
    def test_tape_vs_eager_search_identical(self):
        reference = build_search("serial")
        eager(reference.supernet)
        untaped = result_fingerprint(reference.run())
        search = build_search("serial")
        taped = result_fingerprint(search.run())
        assert untaped == taped
        assert reference.supernet.tape_stats() == EMPTY_TAPE_STATS
        # A short search samples mostly-unique architectures; what must
        # hold is that the tape was consulted at all.
        assert search.supernet.tape_stats()["misses"] > 0

    def test_converged_shard_walks_admission_in_one_pass_per_step(self):
        """All four cores on one architecture: step 0 runs the group's
        pass eagerly, step 1 compiles it, later steps replay — one pass
        per step each way, and the same trajectory as with no tape."""
        from repro.telemetry import Telemetry

        def run(telemetry=None, taped=True):
            search = build_search("serial", telemetry=telemetry)
            search.supernet.tape_compatible = taped
            arch = search.space.sample(np.random.default_rng(8))
            shard = [(arch, search.space.indices_of(arch))] * 4
            search.sample_shard = lambda count, warming_up: shard
            calls = []
            for name in ("quality_many", "loss_many", "quality_and_loss_many"):
                setattr(
                    search.supernet,
                    name,
                    recording(calls, name, getattr(search.supernet, name)),
                )
            return search, result_fingerprint(search.run()), calls

        _, untaped, _ = run(taped=False)
        telemetry = Telemetry()
        search, taped, calls = run(telemetry)

        assert taped == untaped
        assert calls == ["quality_and_loss_many"] * 6
        assert search.supernet.tape_stats() == {
            "hits": 4,
            "misses": 2,
            "compiles": 1,
            "evictions": 0,
            "size": 1,
        }
        for key in ("hits", "misses", "compiles"):
            counted = telemetry.counter(f"nn.tape.{key}").value()
            assert counted == search.supernet.tape_stats()[key]

    @pytest.mark.parametrize("backend", ["processes", "distributed"])
    def test_serial_vs_remote_with_tape(self, backend):
        search = build_search("serial")
        assert search.supernet.tape_compatible
        serial = result_fingerprint(search.run())
        remote = result_fingerprint(build_search(backend, workers=2).run())
        assert serial == remote


class TestPerformanceModelTape:
    def test_training_loss_compiled_and_identical(self):
        from repro.perfmodel.features import ArchitectureEncoder
        from repro.perfmodel.model import PerformanceModel

        space = build_space()
        encoder = ArchitectureEncoder(space)
        rng = np.random.default_rng(0)
        features = rng.normal(size=(12, encoder.num_features))
        targets = rng.normal(size=(12, 2))

        def losses(model, training_loss):
            out = []
            optimizer = Adam(model.parameters(), lr=1e-3)
            for start in (0, 4, 8, 0):
                optimizer.zero_grad()
                loss = training_loss(
                    features[start : start + 4], targets[start : start + 4]
                )
                loss.backward()
                optimizer.step()
                out.append(loss.item())
            return out

        reference = PerformanceModel(encoder, hidden_sizes=(16,))
        untaped = losses(reference, lambda f, t: mse(reference.forward(f), t))
        model = PerformanceModel(encoder, hidden_sizes=(16,))
        taped = losses(model, model.training_loss)
        assert untaped == taped
        assert reference.tape_stats() == EMPTY_TAPE_STATS
        # One key: first minibatch eager, second compiles, the rest replay.
        assert model.tape_stats() == {
            "hits": 2,
            "misses": 2,
            "compiles": 1,
            "evictions": 0,
            "size": 1,
        }
