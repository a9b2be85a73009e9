"""Stacked scoring: one supernet pass per group equals the passes it replaces.

The contracts under test (DESIGN.md §7, §10): ``quality_and_loss_many``
equals ``quality_many`` plus ``loss_many``; a group's gradient computed
from zero and reduced in group order equals the serial engine's
accumulation; whole searches fingerprint-match across backends.  Each
holds whether a backward allocates its gradient buffers (``fresh``) or
copies into the ones an earlier backward left behind (``reused``).
"""

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
    Tensor,
    bce_with_logits,
    concatenate,
    dense_act,
    masked_gather,
    mse,
    softmax_cross_entropy,
    stack_mean,
)
from repro.nn.tensor import no_grad
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

from .test_nn_gradcheck import numerical_grad

NUM_TABLES = 2

#: whether the measured backward allocates gradient buffers or copies
#: into the ones one earlier backward of the same group allocated
BUFFERS = ["fresh", "reused"]


def build_space():
    return dlrm_search_space(DlrmSpaceConfig(num_tables=NUM_TABLES, num_dense_stacks=2))


def ctr_batches(count, batch_size=16, seed=0):
    teacher = CtrTeacher(
        CtrTaskConfig(num_tables=NUM_TABLES, batch_size=batch_size, seed=seed)
    )
    return [teacher.next_batch() for _ in range(count)]


def snapshot_grads(net):
    return [
        None if p.grad is None else p.grad.copy() for p in net.parameters()
    ]


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


def _ids(x):
    return (np.abs(x) * 10).astype(np.int64) % 3


#: one use of each op ``repro.nn`` provides, as ``op(w, x)``: ``w`` is the
#: (3, 4) leaf whose gradient buffer is reused, ``x`` the step's input
OPS = {
    "add": lambda w, x: w + x,
    "sub": lambda w, x: Tensor(x) - w,
    "mul": lambda w, x: w * x,
    "div": lambda w, x: w / (x * x + 1.0),
    "pow": lambda w, x: (w * x) ** 3,
    "matmul": lambda w, x: w @ Tensor(x.T),
    "relu": lambda w, x: (w * x).relu(),
    "squared_relu": lambda w, x: (w * x).squared_relu(),
    "sigmoid": lambda w, x: (w * x).sigmoid(),
    "swish": lambda w, x: (w * x).swish(),
    "gelu": lambda w, x: (w * x).gelu(),
    "tanh": lambda w, x: (w * x).tanh(),
    "softmax": lambda w, x: (w * x).softmax(axis=0),
    "exp": lambda w, x: (w * x).exp(),
    "log": lambda w, x: (w * w + x * x + 1.0).log(),
    "sum": lambda w, x: (w * x).sum(axis=0),
    "mean": lambda w, x: (w * x).mean(axis=1),
    "reshape": lambda w, x: (w * x).reshape(4, 3),
    "transpose": lambda w, x: (w * x).transpose(),
    "gather_rows": lambda w, x: w.gather_rows(_ids(x)),
    "mask": lambda w, x: w.mask(x > 0),
    "concatenate": lambda w, x: concatenate([w, w * x], axis=0),
    "stack_mean": lambda w, x: stack_mean([w, w * x]),
    "dense_act": lambda w, x: dense_act(Tensor(x.T), w, None, "tanh"),
    "dense_act_active": lambda w, x: dense_act(Tensor(x.T), w, None, "gelu", active=(2, 3)),
    "masked_gather": lambda w, x: masked_gather(w, _ids(x), None, 3, active_width=2),
    # one leaf, two sliced contributions of different extents in one
    # backward: the second adds into the block the first wrote
    "dense_act_two_extents": lambda w, x: (
        dense_act(Tensor(x.T), w, None, "tanh", active=(2, 3))
        + dense_act(Tensor(x.T), w, None, "swish", active=(3, 2))
    ),
    "dense_act_input_two_extents": lambda w, x: (
        dense_act(w, Tensor(x.T), None, "sigmoid", active=(2, 3))
        + dense_act(w, Tensor(x.T), None, "relu", active=(4, 1))
    ),
    "masked_gather_two_widths": lambda w, x: (
        masked_gather(w, _ids(x), None, 3, active_width=3)
        + masked_gather(w, _ids(x)[::-1], None, 3, active_width=2)
    ),
    "bce_with_logits": lambda w, x: bce_with_logits(w, x > 0),
    "mse": lambda w, x: mse(w, x),
    "softmax_cross_entropy": lambda w, x: softmax_cross_entropy(w, _ids(x)[:, 0]),
}


class TestGradientBuffers:
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_gradient_buffers_reused_across_steps(self, op):
        """A backward after ``zero_grad`` writes into the buffer the one
        before allocated, and reads what a fresh leaf would and what
        central differences read."""
        rng = np.random.default_rng(0)
        data, first, second = rng.normal(size=(3, 3, 4))

        def loss(w, x):
            out = OPS[op](w, x)
            return (out * out).sum()

        w = Tensor(data, requires_grad=True)
        loss(w, first).backward()
        first_buf = w.grad
        w.zero_grad()
        loss(w, second).backward()
        fresh = Tensor(data, requires_grad=True)
        loss(fresh, second).backward()
        assert w.grad is first_buf  # same preallocated array, new values
        np.testing.assert_array_equal(w.grad, fresh.grad)
        probe = Tensor(data.copy())
        expected = numerical_grad(lambda: float(loss(probe, second).data), probe.data)
        np.testing.assert_allclose(w.grad, expected, rtol=1e-5, atol=1e-6)


class TestStackedPasses:
    def test_quality_many_slices_match_per_batch(self):
        arch = build_space().sample(np.random.default_rng(2))
        net = DlrmSuperNetwork(DlrmSupernetConfig(num_tables=NUM_TABLES))
        batches = ctr_batches(3)
        stacked = net.quality_many(
            arch,
            [b.inputs for b in batches],
            [b.labels for b in batches],
        )
        singles = [net.quality(arch, b.inputs, b.labels) for b in batches]
        assert stacked == singles

    @pytest.mark.parametrize("case", list(CASE_SPACES))
    def test_loss_many_unequal_sizes_averages_per_batch_losses(self, case):
        make_net, arch, make_batches = case()
        net = make_net()
        inputs_seq, labels_seq = make_batches((8, 16))

        combined = net.loss_many(arch, inputs_seq, labels_seq)
        loss_a, loss_b = (
            net.loss_from_logits(net.forward(arch, inputs), labels)
            for inputs, labels in zip(inputs_seq, labels_seq)
        )
        # stack_mean's left-fold matches the old (a + b) * 0.5 chain.
        expected = (loss_a + loss_b) * 0.5
        assert combined.item() == expected.item()
        net.zero_grad()
        combined.backward()
        assert any(p.grad is not None for p in net.parameters())


class TestQualityAndLossMany:
    """The one-pass training form equals the two separate passes."""

    @pytest.mark.parametrize("buffers", BUFFERS)
    @pytest.mark.parametrize(
        "sizes", [(16,), (16, 16, 16), (8, 16, 16)], ids=["one", "three", "unequal"]
    )
    @pytest.mark.parametrize("case", list(CASE_SPACES))
    def test_equals_quality_many_plus_loss_many(self, case, sizes, buffers):
        make_net, arch, make_batches = case()
        inputs_seq, labels_seq = make_batches(sizes)
        scale = np.asarray(len(sizes) / 4)

        reference = make_net()
        want_qualities = reference.quality_many(arch, inputs_seq, labels_seq)
        want_loss = reference.loss_many(arch, inputs_seq, labels_seq)
        reference.zero_grad()
        want_loss.backward(scale)

        net = make_net()
        if buffers == "reused":
            net.loss_many(arch, inputs_seq, labels_seq).backward(scale)
        earlier = [p._buf for p in net.parameters()]
        calls = []
        for name in ("quality_many", "loss_many"):
            setattr(net, name, recording(calls, name, getattr(net, name)))
        qualities, loss = net.quality_and_loss_many(arch, inputs_seq, labels_seq)
        net.zero_grad()
        loss.backward(scale)

        assert qualities == want_qualities
        assert loss.item() == want_loss.item()
        assert_grads_equal(snapshot_grads(reference), snapshot_grads(net))
        # Unequal batches cannot share a stacked mean: two passes.
        assert calls == (["quality_many", "loss_many"] if len(set(sizes)) > 1 else [])
        reused = [p.grad is buf for p, buf in zip(net.parameters(), earlier) if buf is not None]
        assert all(reused) and bool(reused) == (buffers == "reused")

    def test_mixture_host_matches_the_two_passes_in_one_forward(self):
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


class TestForwardOnlyPasses:
    """A pass that does not train runs under ``no_grad``: the qualities of
    the tracked pass, and no autograd graph behind its logits."""

    @pytest.mark.parametrize("case", [dlrm_case, vision_case, transformer_case])
    def test_untracked_qualities_equal_the_tracked_pass(self, case):
        make_net, arch, make_batches = case()
        inputs_seq, labels_seq = make_batches((16, 16, 16))
        net = make_net()
        tracked, loss = net._group_pass(arch, inputs_seq, labels_seq, score=True, train=True)
        assert loss.requires_grad
        first, _ = net._group_pass(arch, inputs_seq[:1], labels_seq[:1], score=True, train=True)
        outputs = []
        forward = net.forward
        net.forward = lambda *args: outputs.append(forward(*args)) or outputs[-1]
        assert net.quality_many(arch, inputs_seq, labels_seq) == tracked
        assert net.quality(arch, inputs_seq[0], labels_seq[0]) == first[0]
        assert len(outputs) == 2
        assert not any(out.requires_grad or out._parents for out in outputs)
        assert all(param.requires_grad for param in net.parameters())
        with no_grad():
            assert not forward(arch, inputs_seq[0]).requires_grad
        assert forward(arch, inputs_seq[0]).requires_grad


class TestEngineZeroGrad:
    def test_the_optimizer_holds_the_supernets_parameters(self):
        """The engine clears gradients through its optimizer's fixed list,
        so that list must be the supernet's parameters, by identity, after
        construction and after a resume."""

        def ids(params):
            return [id(param) for param in params]

        search = build_search("serial")
        assert ids(search._optimizer.params) == ids(search.supernet.parameters())
        for step in range(3):
            search.step(step)
        resumed = build_search("serial")
        resumed.load_state_dict(search.state_dict())
        assert ids(resumed._optimizer.params) == ids(resumed.supernet.parameters())
        resumed.step(3)
        assert ids(resumed._optimizer.params) == ids(resumed.supernet.parameters())


class TestGroupGradientReduce:
    """The contract remote training rests on (DESIGN.md §10): each
    group's gradient computed *from zero* — what a ``train_many`` task
    returns — and reduced in group order equals, bit for bit, the serial
    engine's accumulation of every group's backward into one buffer.
    It holds because every parameter receives one contribution per group
    pass; a supernet that ties a weight across two uses would break it
    here first.  With ``reused`` buffers every task's backward copies
    into arrays an earlier backward allocated: the gradients a task
    returns must be copies, not those arrays."""

    @pytest.mark.parametrize("buffers", BUFFERS)
    @pytest.mark.parametrize(
        "group_sizes",
        [(4,), (1, 1, 1), (3, 3, 3), (1, 3, 2)],
        ids=["single", "one", "three", "unequal"],
    )
    @pytest.mark.parametrize("case", list(CASE_SPACES))
    def test_reduce_in_group_order_equals_serial_accumulation(
        self, case, group_sizes, buffers
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
        if buffers == "reused":
            for arch, inputs, labels, scale, _ in shard:
                net.zero_grad()
                net.loss_many(arch, inputs, labels).backward(np.asarray(scale))
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


def build_search(backend, seed=0, workers=None):
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
    def test_converged_shard_runs_one_pass_per_step(self):
        """All four cores on one architecture: every step scores and
        trains the group with one ``quality_and_loss_many`` pass."""
        search = build_search("serial")
        arch = search.space.sample(np.random.default_rng(8))
        shard = [(arch, search.space.indices_of(arch))] * 4
        search.sample_shard = lambda count, warming_up: shard
        calls = []
        for name in ("quality_many", "loss_many", "quality_and_loss_many"):
            setattr(search.supernet, name, recording(calls, name, getattr(search.supernet, name)))
        search.run()
        assert calls == ["quality_and_loss_many"] * 6

    @pytest.mark.parametrize("backend", ["processes", "distributed"])
    def test_serial_vs_remote(self, backend):
        serial = result_fingerprint(build_search("serial").run())
        remote = result_fingerprint(build_search(backend, workers=2).run())
        assert serial == remote
