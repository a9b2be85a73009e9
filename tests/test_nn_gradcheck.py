"""Finite-difference gradient sweep over every op, loss, and layer.

Every differentiable path in :mod:`repro.nn` — tensor primitives, the
fused layer kernels, the fused losses, and the layers themselves — is
pinned against central finite differences.  The sweep doubles as the
regression suite for the bug fixes that rode along with the autograd
overhaul:

* ``Tensor.__matmul__`` backward for batched (ndim >= 3) matrix @ 1-D
  vector (and every other rank combination);
* ``bce_with_logits`` gradient flow at large logits (the old
  ``log(sigmoid + 1e-9)`` formulation flat-lined past |x| ~ 20);
* ``Module._collect`` traversal of dict/Mapping attributes.
"""

import numpy as np
import pytest

from repro.nn import (
    Dense,
    LayerNorm,
    LowRankDense,
    MLP,
    MaskedDense,
    MaskedEmbedding,
    Module,
    Tensor,
    bce_with_logits,
    dense_act,
    dense_chain,
    embedding_interaction,
    mse,
    softmax_cross_entropy,
    stack_mean,
)
from repro.nn.fused import ACT_KERNELS
from repro.nn.tensor import _same_dtype, _unbroadcast


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` w.r.t. array ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        grad_flat[i] = (hi - lo) / (2 * eps)
    return grad


def assert_gradcheck(build, *arrays, rtol=1e-4, atol=1e-6):
    """Check autograd gradients of ``build(*tensors).sum()`` against
    central differences for every input array."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.sum().backward()
    for tensor, array in zip(tensors, arrays):
        expected = numerical_grad(
            lambda: float(build(*[Tensor(a) for a in arrays]).data.sum()), array
        )
        np.testing.assert_allclose(
            tensor.grad, expected, rtol=rtol, atol=atol,
            err_msg=f"gradient mismatch for input of shape {array.shape}",
        )


def widen_to_float64(module):
    """``module`` with its float32 parameters widened to float64: a layer
    computes in its parameters' dtype, so a check that compares two
    paths at float64 round-off, or against the float64 oracle, runs
    there."""
    for param in module.parameters():
        param.data = param.data.astype(np.float64)
    return module


def rand(*shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(0.0, scale, size=shape)


# ----------------------------------------------------------------------
# Composed references of the fused DLRM nodes
# ----------------------------------------------------------------------
def concatenate(tensors, axis=-1):
    """Tensors joined along ``axis`` as one node: each input's gradient
    is its span of the output's, handed over as a view."""
    _same_dtype(tensors)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def backward(grad):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor(data, parents=tuple(tensors), backward=backward)


def lookup(table, ids, width, modulus):
    """A column-masked, id-wrapped lookup composed from primitives."""
    cols = np.zeros(table.data.shape[1], dtype=table.data.dtype)
    cols[:width] = 1.0
    return table.mask(cols).gather_rows(np.asarray(ids) % modulus)


def interaction_reference(dense, tables, ids, widths, moduli):
    """``embedding_interaction`` as a lookup per table and a concatenate."""
    lookups = [
        lookup(table, ids[:, t], width, modulus)
        for t, (table, width, modulus) in enumerate(zip(tables, widths, moduli))
    ]
    return concatenate([dense, *lookups], axis=-1)


def dense_node(x, weight, bias, act_name, active_in, active_out):
    """One sliced dense step as a node of its own: the matmul on the
    active block, the output padded with ``act(0)``, each gradient
    handed over as its block."""
    act_fwd, act_bwd = ACT_KERNELS[act_name]
    max_out = weight.data.shape[1]
    saved = {"w": weight.data[:active_in, :active_out]}
    pre = x.data[..., :active_in] @ saved["w"]
    if bias is not None:
        pre += bias.data[:active_out]
    out = act_fwd(pre, saved)
    if active_out < max_out:
        padded = np.empty(out.shape[:-1] + (max_out,), dtype=out.dtype)
        padded[..., :active_out] = out
        padded[..., active_out:] = act_fwd(np.zeros((), dtype=out.dtype), {})
        out = padded

    def backward(grad):
        g_pre = act_bwd(grad[..., :active_out], saved)
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(g_pre, (active_out,)), (slice(None, active_out),))
        if weight.requires_grad:
            xs = x.data[..., :active_in]
            sub = np.outer(xs, g_pre) if xs.ndim == 1 else np.swapaxes(xs, -1, -2) @ g_pre
            weight._accumulate(
                _unbroadcast(sub, (active_in, active_out)),
                (slice(None, active_in), slice(None, active_out)),
            )
        if x.requires_grad:
            x._accumulate(g_pre @ saved["w"].T, (Ellipsis, slice(None, active_in)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor(out, parents=parents, backward=backward)


def chain_reference(x, steps):
    """``dense_chain`` as a :func:`dense_node` per step."""
    for step in steps:
        x = dense_node(x, *step)
    return x


class TestPrimitiveOps:
    def test_add_broadcast(self):
        assert_gradcheck(lambda a, b: a + b, rand(3, 4), rand(4, seed=1))

    def test_mul_broadcast(self):
        assert_gradcheck(lambda a, b: a * b, rand(3, 4), rand(4, seed=1))

    def test_pow(self):
        assert_gradcheck(lambda a: a**3, rand(2, 3))

    def test_neg_sub(self):
        assert_gradcheck(lambda a, b: a - b, rand(3), rand(3, seed=1))

    def test_sum_axis(self):
        assert_gradcheck(lambda a: a.sum(axis=0) * rand(4, seed=9), rand(3, 4))

    def test_reshape_transpose(self):
        assert_gradcheck(
            lambda a: a.reshape((4, 3)).transpose((1, 0)) * rand(3, 4, seed=9),
            rand(2, 6),
        )

    def test_mask(self):
        mask = np.array([1.0, 0.0, 1.0, 0.0])
        assert_gradcheck(lambda a: a.mask(mask) * rand(3, 4, seed=9), rand(3, 4))

    def test_gather_rows(self):
        idx = np.array([2, 0, 2, 1])
        assert_gradcheck(
            lambda a: a.gather_rows(idx) * rand(4, 3, seed=9), rand(3, 3)
        )

    def test_concatenate(self):
        assert_gradcheck(
            lambda a, b: concatenate([a, b], axis=-1) * rand(2, 5, seed=9),
            rand(2, 3),
            rand(2, 2, seed=1),
        )

    def test_stack_mean(self):
        assert_gradcheck(
            lambda a, b, c: stack_mean([a, b, c]),
            rand(1), rand(1, seed=1), rand(1, seed=2),
        )

    def test_softmax(self):
        assert_gradcheck(
            lambda a: a.softmax(axis=-1) * rand(3, 5, seed=9), rand(3, 5)
        )


class TestActivations:
    @pytest.mark.parametrize("name", sorted(set(ACT_KERNELS) - {"linear"}))
    def test_tensor_method(self, name):
        assert_gradcheck(
            lambda a: getattr(a, name)(), rand(3, 4) * 1.5
        )


class TestMatmulRankMatrix:
    """Every rank combination of ``a @ b``, including the batched
    matrix @ vector case whose backward used to collapse the batch axes
    incorrectly."""

    CASES = [
        ((4,), (4,)),          # vec @ vec -> scalar
        ((3, 4), (4,)),        # mat @ vec
        ((4,), (4, 5)),        # vec @ mat
        ((3, 4), (4, 5)),      # mat @ mat
        ((2, 3, 4), (4,)),     # batched mat @ vec (the fixed case)
        ((2, 5, 3, 4), (4,)),  # doubly-batched mat @ vec
        ((4,), (2, 4, 5)),     # vec @ batched mat
        ((2, 3, 4), (4, 5)),   # batched mat @ mat (broadcast b)
        ((3, 4), (2, 4, 5)),   # mat @ batched mat (broadcast a)
        ((2, 3, 4), (2, 4, 5)),  # batched mat @ batched mat
    ]

    @pytest.mark.parametrize("a_shape,b_shape", CASES)
    def test_gradients(self, a_shape, b_shape):
        a = rand(*a_shape)
        b = rand(*b_shape, seed=1)
        out_shape = (np.zeros(a_shape) @ np.zeros(b_shape)).shape
        weights = rand(*out_shape, seed=9) if out_shape else 1.0
        assert_gradcheck(lambda x, y: (x @ y) * weights, a, b)


class TestLosses:
    def test_mse(self):
        targets = rand(4, 2, seed=1)
        assert_gradcheck(lambda p: mse(p, targets), rand(4, 2))

    def test_bce_with_logits(self):
        targets = (rand(5, 1, seed=1) > 0).astype(np.float64)
        assert_gradcheck(lambda x: bce_with_logits(x, targets), rand(5, 1))

    def test_bce_large_logits_value_is_finite_and_linear(self):
        # max(x,0) - x*y + log1p(exp(-|x|)): a confident wrong answer at
        # logit 40 must cost ~40 nats, not saturate at -log(1e-9)~20.7.
        logits = Tensor(np.array([[40.0], [-40.0]]), requires_grad=True)
        targets = np.array([[0.0], [1.0]])
        loss = bce_with_logits(logits, targets)
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(40.0, rel=1e-12)

    def test_bce_large_logits_gradient_flows(self):
        # The old sigmoid+log(p+eps) path returned exactly zero gradient
        # here; the stable form gives the full (sigmoid(x) - y) / n.
        logits = Tensor(np.array([[40.0], [-40.0]]), requires_grad=True)
        targets = np.array([[0.0], [1.0]])
        bce_with_logits(logits, targets).backward()
        np.testing.assert_allclose(logits.grad, [[0.5], [-0.5]], atol=1e-12)

    def test_softmax_cross_entropy(self):
        labels = np.array([2, 0, 1, 2])
        assert_gradcheck(
            lambda x: softmax_cross_entropy(x, labels), rand(4, 3)
        )

    def test_softmax_cross_entropy_extreme_logits(self):
        logits = Tensor(np.array([[800.0, 0.0, -800.0]]), requires_grad=True)
        loss = softmax_cross_entropy(logits, np.array([2]))
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.all(np.isfinite(logits.grad))


class TestFusedKernels:
    @pytest.mark.parametrize("act", sorted(ACT_KERNELS))
    def test_dense_act_matches_finite_differences(self, act):
        x, w, b = rand(5, 3), rand(3, 4, seed=1), rand(4, seed=2)
        wm = np.zeros((3, 4)); wm[:2, :3] = 1.0
        bm = np.zeros(4); bm[:3] = 1.0
        assert_gradcheck(
            lambda xt, wt, bt: dense_act(
                xt, wt, bt, act, weight_mask=wm, bias_mask=bm
            ),
            x, w, b,
        )

    def test_dense_act_1d_input(self):
        assert_gradcheck(
            lambda xt, wt, bt: dense_act(xt, wt, bt, "relu"),
            rand(3), rand(3, 4, seed=1), rand(4, seed=2),
        )

    def test_dense_act_3d_input(self):
        assert_gradcheck(
            lambda xt, wt, bt: dense_act(xt, wt, bt, "tanh"),
            rand(2, 5, 3), rand(3, 4, seed=1), rand(4, seed=2),
        )

    def test_dense_act_matches_composed_path(self):
        x, w, b = rand(5, 3), rand(3, 4, seed=1), rand(4, seed=2)
        wm = np.zeros((3, 4)); wm[:2, :3] = 1.0
        bm = np.zeros(4); bm[:3] = 1.0

        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        dense_act(xt, wt, bt, "swish", weight_mask=wm, bias_mask=bm).sum().backward()

        xc, wc, bc = (Tensor(a, requires_grad=True) for a in (x, w, b))
        ((xc @ wc.mask(wm)) + bc.mask(bm)).swish().sum().backward()

        for fused, composed in ((xt, xc), (wt, wc), (bt, bc)):
            np.testing.assert_allclose(fused.grad, composed.grad, rtol=1e-12)

    def test_interaction_matches_finite_differences(self):
        ids = np.array([[0, 4], [9, 1], [3, 4], [7, 0]])  # out-of-range ids exercise the wrap
        assert_gradcheck(
            lambda d, t0, t1: embedding_interaction(d, [t0, t1], ids, [2, 3], [5, 3])
            * rand(4, 10, seed=9),
            rand(4, 2), rand(6, 4), rand(5, 4, seed=1),
        )

    def test_interaction_matches_composed_path(self):
        ids = np.array([[0, 4], [9, 1], [3, 4], [7, 0]])
        arrays = rand(4, 2), rand(6, 4), rand(5, 4, seed=1)
        weights = rand(4, 10, seed=9)
        fused = [Tensor(a, requires_grad=True) for a in arrays]
        out = embedding_interaction(fused[0], fused[1:], ids, [2, 3], [5, 3])
        (out * weights).sum().backward()
        composed = [Tensor(a, requires_grad=True) for a in arrays]
        ref = interaction_reference(composed[0], composed[1:], ids, [2, 3], [5, 3])
        (ref * weights).sum().backward()
        assert np.array_equal(out.data, ref.data)
        for f, c in zip(fused, composed):
            assert np.array_equal(f.grad, c.grad)

    @pytest.mark.parametrize("act", sorted(ACT_KERNELS))
    def test_dense_chain_matches_finite_differences(self, act):
        assert_gradcheck(
            lambda xt, wt, bt, ut: dense_chain(
                xt, [(wt, bt, act, 2, 3), (ut, None, "tanh", 3, 2)]
            ),
            rand(5, 3), rand(3, 4, seed=1), rand(4, seed=2), rand(4, 3, seed=3),
        )

    @pytest.mark.parametrize("act", ["relu", "sigmoid", "swish"])
    def test_dense_chain_matches_masked_path(self, act):
        # act(0) != 0 for sigmoid: the fill value of the inactive output
        # columns must match what the masked matmul produces there.
        x, w, b = rand(5, 3), rand(3, 4, seed=1), rand(4, seed=2)
        wm = np.zeros((3, 4)); wm[:2, :3] = 1.0
        bm = np.zeros(4); bm[:3] = 1.0

        xs, ws, bs = (Tensor(a, requires_grad=True) for a in (x, w, b))
        sliced = dense_chain(xs, [(ws, bs, act, 2, 3)])
        sliced.sum().backward()
        xm, wm_t, bm_t = (Tensor(a, requires_grad=True) for a in (x, w, b))
        masked = dense_act(xm, wm_t, bm_t, act, weight_mask=wm, bias_mask=bm)
        masked.sum().backward()

        np.testing.assert_allclose(sliced.data, masked.data, rtol=1e-12)
        for a, b_ in ((xs, xm), (ws, wm_t), (bs, bm_t)):
            np.testing.assert_allclose(a.grad, b_.grad, rtol=1e-12)
        assert np.all(ws.grad[2:, :] == 0) and np.all(ws.grad[:, 3:] == 0)

    def test_dense_chain_1d_and_3d_inputs(self):
        assert_gradcheck(
            lambda xt, wt, bt: dense_chain(xt, [(wt, bt, "relu", 2, 3)]),
            rand(3), rand(3, 4, seed=1), rand(4, seed=2),
        )
        assert_gradcheck(
            lambda xt, wt, bt: dense_chain(xt, [(wt, bt, "tanh", 2, 3), (wt, None, "relu", 3, 1)]),
            rand(2, 5, 4), rand(4, 4, seed=1), rand(4, seed=2),
        )

    def test_dense_chain_two_extents_on_one_leaf(self):
        # Input, weight and bias each receive two sliced blocks of
        # different extents in one backward: the later one adds into
        # the block the first one wrote.
        assert_gradcheck(
            lambda xt, wt, bt: dense_chain(xt, [(wt, bt, "tanh", 2, 3)])
            + dense_chain(xt, [(wt, bt, "swish", 3, 1)]),
            rand(5, 3), rand(3, 4, seed=1), rand(4, seed=2),
        )

    def test_dense_chain_equals_a_node_per_step(self):
        arrays = rand(5, 4), rand(4, 6, seed=1), rand(6, seed=2), rand(6, 6, seed=3)
        weights = rand(5, 6, seed=9)
        grads, outs = [], []
        for build in (dense_chain, chain_reference):
            x, w, b, u = (Tensor(a, requires_grad=True) for a in arrays)
            out = build(x, [(w, b, "relu", 3, 2), (u, None, "linear", 2, 6), (u, b, "sigmoid", 6, 5)])
            (out * weights).sum().backward()
            outs.append(out.data)
            grads.append([t.grad for t in (x, w, b, u)])
        assert np.array_equal(*outs)
        for chained, per_step in zip(*grads):
            assert np.array_equal(chained, per_step)

    def test_interaction_two_widths_on_one_table(self):
        ids = np.array([0, 9, 3, 7, 3])[:, None]
        assert_gradcheck(
            lambda d, t: embedding_interaction(d, [t], ids, [3], [5]) * rand(5, 5, seed=8)
            + embedding_interaction(d, [t], ids[::-1], [2], [5]) * rand(5, 5, seed=9),
            rand(5, 1), rand(6, 4),
        )

    def test_dense_chain_refuses_a_step_that_does_not_read_the_last(self):
        x, w = Tensor(rand(5, 3)), Tensor(rand(3, 4, seed=1))
        with pytest.raises(ValueError, match="reads 2 columns of 3 active"):
            dense_chain(x, [(w, None, "relu", 2, 3), (Tensor(rand(4, 4)), None, "relu", 2, 3)])
        with pytest.raises(ValueError, match="outside weight shape"):
            dense_chain(x, [(w, None, "relu", 2, 5)])

    def test_interaction_leaves_inactive_columns_zero(self):
        ids = np.array([0, 9, 3, 7])[:, None]
        table = Tensor(rand(6, 4), requires_grad=True)
        out = embedding_interaction(Tensor(rand(4, 1)), [table], ids, [2], [5])
        out.sum().backward()
        assert np.all(out.data[:, 3:] == 0)
        assert np.all(table.grad[:, 2:] == 0) and np.all(table.grad[5:] == 0)
        with pytest.raises(ValueError, match="id modulus 7 outside"):
            embedding_interaction(Tensor(rand(4, 1)), [table], ids, [2], [7])


class TestLayers:
    """Layers build float32 parameters; each check widens them to float64
    first (a layer computes in its parameters' dtype), so the central
    differences stay the float64 oracle."""

    def _param_gradcheck(self, module, run, rtol=1e-4, atol=1e-6):
        """Check gradients of ``run().sum()`` w.r.t. every parameter."""
        assert all(param.data.dtype == np.float32 for param in module.parameters())
        widen_to_float64(module)
        module.zero_grad()
        run().sum().backward()
        for param in module.parameters():
            grad = param.grad if param.grad is not None else np.zeros_like(param.data)
            expected = numerical_grad(lambda: float(run().data.sum()), param.data)
            np.testing.assert_allclose(grad, expected, rtol=rtol, atol=atol)

    def test_dense(self):
        rng = np.random.default_rng(0)
        layer = Dense(3, 4, rng, activation_name="gelu")
        x = Tensor(rand(5, 3))
        self._param_gradcheck(layer, lambda: layer(x))

    def test_masked_dense_active_widths(self):
        rng = np.random.default_rng(0)
        layer = MaskedDense(4, 6, rng, activation_name="swish")
        x = Tensor(rand(5, 4))
        self._param_gradcheck(
            layer, lambda: layer(x, active_in=3, active_out=4)
        )

    def test_lowrank_dense(self):
        rng = np.random.default_rng(0)
        layer = LowRankDense(4, 6, 4, rng, activation_name="relu")
        x = Tensor(rand(5, 4))
        self._param_gradcheck(
            layer, lambda: layer(x, active_in=3, active_out=4, active_rank=2)
        )

    def test_masked_embedding_with_wrap(self):
        rng = np.random.default_rng(0)
        layer = MaskedEmbedding(6, 4, rng)
        ids = np.array([0, 11, 3, 5])[:, None]
        dense = Tensor(rand(4, 1))
        self._param_gradcheck(
            layer,
            lambda: embedding_interaction(dense, [layer.table], ids, [3], [4])
            * rand(4, 5, seed=9),
        )

    def test_layernorm(self):
        layer = LayerNorm(4)
        x = Tensor(rand(5, 4))
        self._param_gradcheck(layer, lambda: layer(x) * rand(5, 4, seed=9))

    def test_layernorm_active_width(self):
        layer = LayerNorm(6)
        x = Tensor(rand(3, 6) * np.r_[np.ones(4), np.zeros(2)])
        self._param_gradcheck(
            layer, lambda: layer(x, active_width=4) * rand(3, 6, seed=9)
        )

    def test_mlp(self):
        rng = np.random.default_rng(0)
        mlp = MLP(3, [5], 2, rng)
        x = Tensor(rand(4, 3))
        self._param_gradcheck(mlp, lambda: mlp(x) * rand(4, 2, seed=9))


class TestModuleCollect:
    """Regression: dict-valued attributes must contribute parameters."""

    def test_dict_attribute_parameters_collected(self):
        class WithDict(Module):
            def __init__(self):
                rng = np.random.default_rng(0)
                self.tables = {
                    "a": Dense(2, 3, rng),
                    "b": Tensor(np.ones(4), requires_grad=True),
                }

        params = WithDict().parameters()
        # Dense weight + bias, plus the bare tensor.
        assert len(params) == 3

    def test_nested_list_of_modules_collected(self):
        class WithNested(Module):
            def __init__(self):
                rng = np.random.default_rng(0)
                self.blocks = [[Dense(2, 2, rng)] for _ in range(3)]

        assert len(WithNested().parameters()) == 6

    def test_shared_tensor_deduplicated(self):
        shared = Tensor(np.ones(2), requires_grad=True)

        class WithShared(Module):
            def __init__(self):
                self.by_scale = {0.5: shared, 1.0: shared}

        assert WithShared().parameters() == [shared]

    def test_dlrm_embeddings_reach_optimizer(self):
        from repro.supernet.dlrm import DlrmSuperNetwork

        net = DlrmSuperNetwork()
        params = set(map(id, net.parameters()))
        for per_scale in net.embeddings:
            for table in per_scale.values():
                assert id(table.table) in params
