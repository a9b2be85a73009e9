"""A property sweep over every kernel's gradient.

``test_nn_gradcheck.py`` pins each op on a few chosen shapes.  This
module draws the cases instead (``hypothesis``): an op from
:mod:`repro.nn.fused`, :mod:`repro.nn.tensor` or :mod:`repro.nn.losses`,
its shapes, its active slice and extent, and a *touch order* — how many
times the op touches the same leaves in one backward (a later touch
adds into the block the first one wrote) and whether an earlier
backward left stale gradient buffers behind a ``zero_grad`` (the first
touch of the checked pass must overwrite them).  Embedding indices are
drawn with duplicates, and every activation in ``ACT_KERNELS`` is
drawn.

Each draw is checked against float64 central differences of the same
loss.  The fused kernels are also checked against their reference, in
outputs and every gradient with ``np.array_equal``, at both dtypes:
``dense_act`` against the chain of ``Tensor`` primitives it replaces,
``dense_chain`` against a node per step (``dense_node``: the step's
matmul on the active block, its padded output, its gradients handed
over as blocks), and ``embedding_interaction`` against a
``gather_rows`` + ``mask`` lookup per table and a ``concatenate``.

The strategy takes a dtype.  At float32 the kernels run in float32 and
are checked against the float64 oracle — central differences on the
float32 inputs widened to float64 — within ``FLOAT32_BOUND``.

The same sweep draws optimizer cases: parameter lists, touched subsets
and block gradients for :class:`~repro.nn.Adam`, whose flat-run step
must equal the per-parameter update it replaced (``adam_reference``)
byte for byte, in weights and ``state_dict()``, after every step.

A tier-1 run draws a fixed, derandomized set of examples, so a CI
failure replays locally; ``-m slow`` collects a larger, random sweep.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nn import (
    Adam,
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
from repro.nn.optim import BETA1 as ADAM_BETA1, BETA2 as ADAM_BETA2, EPS as ADAM_EPS

from .test_nn_gradcheck import chain_reference, concatenate, interaction_reference

ACT_NAMES = sorted(ACT_KERNELS)

#: float64 kernels against float64 central differences (eps 1e-6):
#: the bounds ``test_nn_gradcheck.py`` uses.
FLOAT64_BOUND = dict(rtol=1e-4, atol=1e-6)

#: float32 kernels against the float64 oracle: each gradient entry
#: within ``rtol`` of the oracle's, plus ``atol`` times the largest
#: oracle entry (float32 keeps ~7 digits and a drawn case sums at most
#: a few dozen products: the worst error over 5,000 random draws was
#: 1.6e-6 of that scale, ~60x inside the bound).
FLOAT32_BOUND = dict(rtol=1e-4, atol=1e-4)

#: central-difference step of the float64 oracle
EPS = 1e-6


# ----------------------------------------------------------------------
# A drawn case
# ----------------------------------------------------------------------
@dataclass
class Case:
    """One drawn op: its float64 leaf ``arrays``, ``forward(tensors,
    touch)`` for each of ``touches`` and ``warm`` (the touches of an
    earlier backward, undone by ``zero_grad``), and optionally the
    ``composed`` reference with the same signature."""

    label: str
    arrays: List[np.ndarray]
    forward: Callable[[List[Tensor], Any], Tensor]
    touches: List[Any]
    warm: List[Any] = field(default_factory=list)
    composed: Optional[Callable[[List[Tensor], Any], Tensor]] = None
    seed: int = 0

    def __repr__(self) -> str:
        shapes = [a.shape for a in self.arrays]
        return (
            f"Case({self.label}, shapes={shapes}, touches={self.touches}, "
            f"warm={self.warm}, seed={self.seed})"
        )


def const(array: np.ndarray, like: Tensor) -> Tensor:
    """A constant in ``like``'s dtype (a mixed-dtype op is refused)."""
    return Tensor(np.asarray(array, dtype=like.data.dtype))


def run_loss(case: Case, forward, tensors: List[Tensor], touches) -> tuple:
    """``sum_k (out_k * r_k).sum()`` over ``touches``, each ``r_k`` a
    fixed random weighting (so no gradient entry is a plain count), and
    the outputs."""
    total, outs = None, []
    for k, touch in enumerate(touches):
        out = forward(tensors, touch)
        outs.append(out)
        weight = np.random.default_rng(case.seed + 101 * k).normal(size=out.data.shape)
        term = (out * const(weight, out)).sum()
        total = term if total is None else total + term
    return total, outs


def autograd(case: Case, dtype, forward=None) -> tuple:
    """Gradients of the case's loss at ``dtype``, after its warm pass."""
    forward = forward or case.forward
    tensors = [Tensor(a.astype(dtype), requires_grad=True) for a in case.arrays]
    if case.warm:
        loss, _ = run_loss(case, forward, tensors, case.warm)
        loss.backward()
        for tensor in tensors:
            tensor.zero_grad()
    loss, outs = run_loss(case, forward, tensors, case.touches)
    loss.backward()
    grads = [
        t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors
    ]
    return [o.data for o in outs], grads, loss


def oracle(case: Case, arrays: List[np.ndarray]) -> List[np.ndarray]:
    """Central differences of the loss in float64 at ``arrays``."""
    arrays = [np.array(a, dtype=np.float64) for a in arrays]

    def value() -> float:
        loss, _ = run_loss(case, case.forward, [Tensor(a) for a in arrays], case.touches)
        return float(loss.data)

    grads = []
    for array in arrays:
        grad = np.zeros_like(array)
        flat, grad_flat = array.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + EPS
            hi = value()
            flat[i] = orig - EPS
            lo = value()
            flat[i] = orig
            grad_flat[i] = (hi - lo) / (2 * EPS)
        grads.append(grad)
    return grads


def check_case(case: Case, dtype) -> None:
    """The case's gradients at ``dtype`` against the float64 oracle, and
    its fused kernel against its reference, bit for bit."""
    dtype = np.dtype(dtype)
    outs, grads, loss = autograd(case, dtype)
    assert loss.data.dtype == dtype, case
    for out in outs:
        assert out.dtype == dtype, case
    leaves = [a.astype(dtype) for a in case.arrays]
    expected = oracle(case, leaves)
    for i, (grad, want) in enumerate(zip(grads, expected)):
        assert grad.dtype == dtype, (case, i, grad.dtype)
        if dtype == np.float64:
            np.testing.assert_allclose(
                grad, want, **FLOAT64_BOUND, err_msg=f"leaf {i} of {case}"
            )
        else:
            scale = max(1.0, float(np.abs(want).max(initial=0.0)))
            np.testing.assert_allclose(
                grad,
                want,
                rtol=FLOAT32_BOUND["rtol"],
                atol=FLOAT32_BOUND["atol"] * scale,
                err_msg=f"leaf {i} of {case}",
            )
    if case.composed is None:
        return
    ref_outs, ref_grads, _ = autograd(case, dtype, forward=case.composed)
    for got, want in zip(outs + grads, ref_outs + ref_grads):
        assert np.array_equal(got, want), case


# ----------------------------------------------------------------------
# Strategies: one builder per op family
# ----------------------------------------------------------------------
dims = st.integers(1, 4)
#: a fused kernel's full extent: room for a partial prefix block
widths = st.integers(2, 5)
seeds = st.integers(0, 2**31 - 1)
#: every name in ``ACT_KERNELS`` about equally often (a ``sampled_from``
#: draws its first names far more often than its last)
activations = st.integers(0, 2**16).map(lambda k: ACT_NAMES[k % len(ACT_NAMES)])

#: how the checked backward touches the leaves: once (a first touch
#: writes the gradient), twice (the later touch adds into the first
#: one's block), or twice after an earlier, widest backward and
#: ``zero_grad`` left its buffers holding stale values everywhere
TOUCH_ORDERS = ("first", "later", "after zero_grad")


@st.composite
def touch_order(draw, touch: st.SearchStrategy, widest: st.SearchStrategy) -> tuple:
    """``(touches, warm)`` for one of ``TOUCH_ORDERS``: each checked
    touch drawn from ``touch`` (an extent, an activation, an id order),
    the earlier one from ``widest`` (the full extent)."""
    order = draw(st.sampled_from(TOUCH_ORDERS))
    touches = [draw(touch) for _ in range(1 if order == "first" else 2)]
    warm = [draw(widest)] if order == "after zero_grad" else []
    return touches, warm


def normal(rng: np.random.Generator, *shape: int, scale: float = 1.0) -> np.ndarray:
    return rng.normal(0.0, scale, size=shape)


def apply_act(pre: Tensor, name: str) -> Tensor:
    return pre if name == "linear" else getattr(pre, name)()


def prefix_masks(max_in: int, max_out: int, active_in: int, active_out: int, like: Tensor):
    wm = np.zeros((max_in, max_out))
    wm[:active_in, :active_out] = 1.0
    bm = np.zeros(max_out)
    bm[:active_out] = 1.0
    return const(wm, like).data, const(bm, like).data


@st.composite
def dense_cases(draw) -> Case:
    """``dense_act`` masked or unmasked; 1-, 2- or 3-d input; with or
    without bias; touches (``TOUCH_ORDERS``) of drawn extents and
    activations."""
    seed = draw(seeds)
    rng = np.random.default_rng(seed)
    lead = tuple(draw(st.lists(dims, max_size=2)))
    max_in, max_out = draw(widths), draw(widths)
    mode = draw(st.sampled_from(["masked", "full"]))
    has_bias = draw(st.booleans())
    touch = st.tuples(st.integers(1, max_in), st.integers(1, max_out), activations)
    widest = st.tuples(st.just(max_in), st.just(max_out), activations)
    touches, warm = draw(touch_order(touch, widest))
    arrays = [normal(rng, *lead, max_in), normal(rng, max_in, max_out)]
    if has_bias:
        arrays.append(normal(rng, max_out))

    def unpack(tensors):
        return tensors[0], tensors[1], tensors[2] if has_bias else None

    def fused(tensors, t):
        x, w, b = unpack(tensors)
        active_in, active_out, act = t
        if mode == "masked":
            wm, bm = prefix_masks(max_in, max_out, active_in, active_out, w)
            return dense_act(x, w, b, act, weight_mask=wm, bias_mask=bm if has_bias else None)
        return dense_act(x, w, b, act)

    def composed(tensors, t):
        x, w, b = unpack(tensors)
        active_in, active_out, act = t
        if mode == "full":
            pre = x @ w
            return apply_act(pre if b is None else pre + b, act)
        wm, bm = prefix_masks(max_in, max_out, active_in, active_out, w)
        pre = x @ w.mask(wm)
        return apply_act(pre if b is None else pre + b.mask(bm), act)

    return Case(f"dense_act[{mode}]", arrays, fused, touches, warm, composed, seed=seed)


@st.composite
def chain_cases(draw) -> Case:
    """``dense_chain`` of one to three steps; 1-, 2- or 3-d input; each
    step with or without bias; touches (``TOUCH_ORDERS``) of drawn
    active extents (1 included) and activations."""
    seed = draw(seeds)
    rng = np.random.default_rng(seed)
    lead = tuple(draw(st.lists(dims, max_size=2)))
    extents = draw(st.lists(widths, min_size=2, max_size=4))  # max widths, input first
    biased = [draw(st.booleans()) for _ in extents[1:]]
    arrays = [normal(rng, *lead, extents[0])]
    for max_in, max_out, has_bias in zip(extents, extents[1:], biased):
        arrays.append(normal(rng, max_in, max_out))
        if has_bias:
            arrays.append(normal(rng, max_out))
    touch = st.tuples(
        st.tuples(*[st.integers(1, n) for n in extents]),
        st.tuples(*[activations for _ in extents[1:]]),
    )
    widest = st.tuples(st.just(tuple(extents)), touch.map(lambda t: t[1]))
    touches, warm = draw(touch_order(touch, widest))

    def steps(tensors, t):
        active, acts = t
        leaves, out = iter(tensors[1:]), []
        for k, has_bias in enumerate(biased):
            weight = next(leaves)
            bias = next(leaves) if has_bias else None
            out.append((weight, bias, acts[k], active[k], active[k + 1]))
        return out

    return Case(
        f"dense_chain[{len(biased)} steps]", arrays,
        lambda tensors, t: dense_chain(tensors[0], steps(tensors, t)), touches, warm,
        lambda tensors, t: chain_reference(tensors[0], steps(tensors, t)), seed=seed,
    )


@st.composite
def interaction_cases(draw) -> Case:
    """``embedding_interaction`` over one to three tables (a dense part
    0 to 3 wide), ids drawn with duplicates and wrapped by a drawn
    modulus (the fine-sharing wrap when it is below the vocabulary);
    touches (``TOUCH_ORDERS``) of drawn active widths (1 included) and
    row orders."""
    seed = draw(seeds)
    rng = np.random.default_rng(seed)
    rows, dense_width = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    shapes = draw(st.lists(st.tuples(st.integers(1, 5), widths), min_size=1, max_size=3))
    moduli = [draw(st.integers(1, vocab)) for vocab, _ in shapes]
    ids = np.array(
        [[draw(st.integers(0, 2 * vocab)) for vocab, _ in shapes] for _ in range(rows)]
    )
    ids = np.concatenate([ids, ids[:1]])  # the first row's ids, again: duplicates
    arrays = [normal(rng, len(ids), dense_width)]
    arrays += [normal(rng, vocab, width) for vocab, width in shapes]
    orders = st.permutations(range(len(ids)))
    touch = st.tuples(st.tuples(*[st.integers(1, width) for _, width in shapes]), orders)
    widest = st.tuples(st.just(tuple(width for _, width in shapes)), orders)
    touches, warm = draw(touch_order(touch, widest))

    def forward(op):
        return lambda tensors, t: op(tensors[0], tensors[1:], ids[list(t[1])], t[0], moduli)

    return Case(
        f"embedding_interaction[{len(shapes)} tables]", arrays,
        forward(embedding_interaction), touches, warm, forward(interaction_reference),
        seed=seed,
    )


BROADCASTS = ["same", "row", "col", "scalar", "lead"]


def broadcast_shape(kind: str, m: int, n: int) -> tuple:
    return {"same": (m, n), "row": (n,), "col": (m, 1), "scalar": (), "lead": (1, n)}[kind]


MATMUL_RANKS = [
    ((4,), (4,)), ((3, 4), (4,)), ((4,), (4, 5)), ((3, 4), (4, 5)),
    ((2, 3, 4), (4,)), ((4,), (2, 4, 5)), ((2, 3, 4), (4, 5)),
    ((3, 4), (2, 4, 5)), ((2, 3, 4), (2, 4, 5)),
]


@st.composite
def tensor_cases(draw) -> Case:
    """A ``Tensor`` primitive: arithmetic with broadcasting, matmul at
    every rank pairing, the activations, softmax, reductions, reshape,
    transpose, row gather (with duplicates), mask, concatenate and
    ``stack_mean``; touched once or twice (``TOUCH_ORDERS``)."""
    seed = draw(seeds)
    rng = np.random.default_rng(seed)
    op = draw(
        st.sampled_from(
            ["add", "sub", "mul", "pow", "matmul", "act", "softmax", "sum", "mean",
             "reshape", "transpose", "gather_rows", "mask", "concatenate", "stack_mean"]
        )
    )
    m, n = draw(dims), draw(dims)
    touches, warm = draw(touch_order(st.just(None), st.just(None)))
    a = normal(rng, m, n)
    arrays: List[np.ndarray] = [a]
    label = op
    if op in ("add", "sub", "mul"):
        kind = draw(st.sampled_from(BROADCASTS))
        label = f"{op}[{kind}]"
        arrays.append(normal(rng, *broadcast_shape(kind, m, n)))
        forward = {
            "add": lambda ts, t: ts[0] + ts[1],
            "sub": lambda ts, t: ts[0] - ts[1],
            "mul": lambda ts, t: ts[0] * ts[1],
        }[op]
    elif op == "pow":
        exponent = draw(st.sampled_from([2, 3, -0.5]))
        label = f"pow[{exponent}]"
        if exponent < 0:
            arrays[0] = np.abs(a) + 0.5
        forward = lambda ts, t: ts[0] ** exponent  # noqa: E731
    elif op == "matmul":
        a_shape, b_shape = draw(st.sampled_from(MATMUL_RANKS))
        label = f"matmul{a_shape}@{b_shape}"
        arrays = [normal(rng, *a_shape), normal(rng, *b_shape)]
        forward = lambda ts, t: ts[0] @ ts[1]  # noqa: E731
    elif op == "act":
        name = draw(activations.filter(lambda n_: n_ != "linear"))
        label = f"Tensor.{name}"
        arrays[0] = a * 1.5
        forward = lambda ts, t: getattr(ts[0], name)()  # noqa: E731
    elif op == "softmax":
        axis = draw(st.sampled_from([0, -1]))
        forward = lambda ts, t: ts[0].softmax(axis=axis)  # noqa: E731
    elif op in ("sum", "mean"):
        axis = draw(st.sampled_from([None, 0, 1, (0, 1)]))
        keepdims = draw(st.booleans())
        label = f"{op}[axis={axis}, keepdims={keepdims}]"
        forward = lambda ts, t: getattr(ts[0], op)(axis=axis, keepdims=keepdims)  # noqa: E731
    elif op == "reshape":
        forward = lambda ts, t: ts[0].reshape(n, m)  # noqa: E731
    elif op == "transpose":
        forward = lambda ts, t: ts[0].transpose((1, 0))  # noqa: E731
    elif op == "gather_rows":
        ids = np.array(draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6)))
        ids = np.append(ids, ids[0])  # a duplicate row
        forward = lambda ts, t: ts[0].gather_rows(ids)  # noqa: E731
    elif op == "mask":
        cols = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
        forward = lambda ts, t: ts[0].mask(const(cols, ts[0]).data)  # noqa: E731
    elif op == "concatenate":
        axis = draw(st.sampled_from([0, -1]))
        other = (draw(dims), n) if axis == 0 else (m, draw(dims))
        arrays.append(normal(rng, *other))
        forward = lambda ts, t: concatenate(ts, axis=axis)  # noqa: E731
    else:  # stack_mean
        count = draw(st.integers(1, 3))
        arrays = [normal(rng, m, n) for _ in range(count)]
        forward = lambda ts, t: stack_mean(ts)  # noqa: E731
    return Case(label, arrays, forward, touches, warm, seed=seed)


@st.composite
def loss_cases(draw) -> Case:
    """The fused losses: BCE on logits (labels 0/1), MSE, and softmax
    cross entropy (integer labels, duplicates allowed)."""
    seed = draw(seeds)
    rng = np.random.default_rng(seed)
    op = draw(st.sampled_from(["bce", "mse", "softmax_ce"]))
    m, n = draw(dims), draw(dims)
    touches, warm = draw(touch_order(st.just(None), st.just(None)))
    if op == "bce":
        shape = draw(st.sampled_from([(m, 1), (m, n)]))
        targets = (rng.uniform(size=shape) < 0.5).astype(np.float64)
        forward = lambda ts, t: bce_with_logits(ts[0], const(targets, ts[0]).data)  # noqa: E731
    elif op == "mse":
        shape = (m, n)
        targets = normal(rng, m, n)
        forward = lambda ts, t: mse(ts[0], const(targets, ts[0]).data)  # noqa: E731
    else:
        shape = (m, n)
        labels = rng.integers(0, n, size=m)
        forward = lambda ts, t: softmax_cross_entropy(ts[0], labels)  # noqa: E731
    return Case(op, [normal(rng, *shape, scale=2.0)], forward, touches, warm, seed=seed)


def kernel_cases() -> st.SearchStrategy[Case]:
    """Any op of :mod:`repro.nn` with a gradient, drawn as a ``Case``:
    each of the three fused kernels, which have the most paths, twice
    as often as the three losses together, and the fifteen primitives
    four times as often."""
    fused = [dense_cases(), chain_cases(), interaction_cases()]
    return st.one_of(*fused, *fused, loss_cases(), *[tensor_cases()] * 4)


# ----------------------------------------------------------------------
# The sweeps
# ----------------------------------------------------------------------
def selects_slow(config) -> bool:
    """Whether ``-m`` asks for the ``slow`` tests (``not slow`` does not)."""
    return re.search(r"(?<!not )\bslow\b", config.getoption("markexpr") or "") is not None


def pytest_generate_tests(metafunc):
    """Tier-1 draws ``TIER1_EXAMPLES`` derandomized examples per dtype;
    the large random sweep exists only when ``-m`` selects ``slow``."""
    if "examples" not in metafunc.fixturenames:
        return
    params = [pytest.param(None, id="tier1")]
    if selects_slow(metafunc.config):
        params.append(pytest.param(SLOW_EXAMPLES, id="slow", marks=pytest.mark.slow))
    metafunc.parametrize("examples", params)


#: examples per dtype in a tier-1 run (derandomized) and under -m slow
TIER1_EXAMPLES = 250
SLOW_EXAMPLES = 5000


def sweep(dtype, examples: Optional[int]) -> None:
    if examples is None:
        run = settings(
            max_examples=TIER1_EXAMPLES, deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.too_slow],
        )
    else:
        run = settings(
            max_examples=examples, deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )

    @run
    @given(case=kernel_cases())
    def check(case: Case) -> None:
        check_case(case, dtype)

    check()


def test_float64_kernels_match_central_differences_and_composed_reference(examples):
    sweep(np.float64, examples)


def test_float32_kernels_match_the_float64_oracle(examples):
    sweep(np.float32, examples)


@pytest.mark.parametrize(
    "op",
    [
        lambda a, b: a + b,
        lambda a, b: a * b,
        lambda a, b: a @ b,
        lambda a, b: concatenate([a, b]),
        lambda a, b: stack_mean([a, b]),
        lambda a, b: dense_act(a, b, None, "relu"),
        lambda a, b: dense_chain(a, [(b, None, "relu", 2, 2)]),
        lambda a, b: embedding_interaction(a, [b], np.zeros((2, 1), dtype=int), [2], [2]),
    ],
    ids=[
        "add", "mul", "matmul", "concatenate", "stack_mean", "dense_act", "dense_chain",
        "embedding_interaction",
    ],
)
def test_a_mixed_float32_float64_op_is_refused(op):
    a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(TypeError, match="float32 and float64"):
        op(a, b)
    with pytest.raises(TypeError, match="float32 and float64"):
        a * np.ones(2)  # a float64 array constant is refused too
    assert (a * 2.0).data.dtype == np.float32  # a Python scalar takes the dtype


# ----------------------------------------------------------------------
# Adam: flat runs of one arena against the per-parameter update
# ----------------------------------------------------------------------
def adam_reference(params: List[Tensor], state: dict, lr: float) -> None:
    """One step of the per-parameter Adam the flat arenas replace.

    ``state`` is in ``Adam.state_dict()`` form (``t`` and per-parameter
    ``m`` / ``v`` lists, ``None`` for a parameter never stepped) and is
    updated in place: each parameter with a gradient runs the thirteen
    elementwise ops of its own update."""
    state["t"] += 1
    t = state["t"]
    for i, param in enumerate(params):
        if param.grad is None:
            continue
        if state["m"][i] is None:
            state["m"][i] = np.zeros_like(param.data)
            state["v"][i] = np.zeros_like(param.data)
        m, v = state["m"][i], state["v"][i]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * param.grad
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * param.grad**2
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        param.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def same_bits(mine: Optional[np.ndarray], theirs: Optional[np.ndarray]) -> bool:
    """Equal dtype, shape and bytes (``-0.0`` is not ``+0.0``); two
    ``None`` slots are equal."""
    if mine is None or theirs is None:
        return mine is None and theirs is None
    return (
        mine.dtype == theirs.dtype and mine.shape == theirs.shape
        and mine.tobytes() == theirs.tobytes()
    )


def assert_same_state(optimizer: Adam, params: List[Tensor], ref: List[Tensor], state: dict):
    for mine, theirs in zip(params, ref):
        assert same_bits(mine.data, theirs.data)
    got = optimizer.state_dict()
    assert got["t"] == state["t"]
    for name in ("m", "v"):
        assert len(got[name]) == len(state[name])
        assert all(same_bits(a, b) for a, b in zip(got[name], state[name])), name


#: how a step's gradient reaches a parameter: a backward's first touch
#: (into ``_buf``, the arena slot once bound), or a ``grad`` that is not
#: the slot: assigned directly, or accumulated after ``_buf`` was
#: rebound to another array or cleared (``Tensor`` lets a caller do
#: either, and the step must not care)
DELIVERIES = ("backward", "assigned", "rebound", "cleared")
#: which parameters a step touches
TOUCHED = ("none", "all", "even", "odd", "drawn")


@dataclass
class AdamCase:
    """A drawn parameter list and its steps: per step, per parameter,
    ``None`` (untouched) or ``(block, delivery)``; before step
    ``resume_at`` the optimizer may be rebuilt from its own
    ``state_dict`` or from the reference's."""

    dtype: Any
    shapes: List[tuple]
    lr: float
    steps: List[List[Optional[tuple]]]
    resume: Optional[str]
    resume_at: int
    seed: int

    def __repr__(self) -> str:
        return (
            f"AdamCase({np.dtype(self.dtype).name}, shapes={self.shapes}, lr={self.lr}, "
            f"steps={self.steps}, resume={self.resume}@{self.resume_at}, seed={self.seed})"
        )


@st.composite
def adam_cases(draw, dtype) -> AdamCase:
    shapes = draw(st.lists(
        st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple), min_size=1, max_size=6,
    ))
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        count, touched = len(shapes), draw(st.sampled_from(TOUCHED))
        mask = {
            "none": [False] * count,
            "all": [True] * count,
            "even": [i % 2 == 0 for i in range(count)],
            "odd": [i % 2 == 1 for i in range(count)],
        }.get(touched) or draw(st.lists(st.booleans(), min_size=count, max_size=count))
        steps.append([
            (tuple(draw(st.integers(1, n)) for n in shape), draw(st.sampled_from(DELIVERIES)))
            if live else None
            for shape, live in zip(shapes, mask)
        ])
    return AdamCase(
        dtype, shapes, draw(st.sampled_from([1e-3, 5e-3, 0.05, 0.1])), steps,
        draw(st.sampled_from([None, "own", "reference"])),
        draw(st.integers(0, len(steps) - 1)), draw(st.integers(0, 2**16)),
    )


def block_gradient(rng: np.random.Generator, shape: tuple, extent: tuple, dtype) -> np.ndarray:
    """``-0.0`` outside the prefix block ``extent``; inside, values over
    six decades with a few exact zeros of either sign."""
    grad = np.full(shape, -0.0, dtype=dtype)
    block = tuple(slice(0, n) for n in extent)
    values = rng.normal(size=extent) * 10.0 ** rng.uniform(-3, 3, size=extent)
    values[rng.random(size=extent) < 0.1] = rng.choice([0.0, -0.0])
    grad[block] = values
    return grad


def check_adam_case(case: AdamCase) -> None:
    rng = np.random.default_rng(case.seed)
    initial = [rng.normal(size=shape).astype(case.dtype) for shape in case.shapes]
    params = [Tensor(a.copy(), requires_grad=True) for a in initial]
    ref = [Tensor(a.copy(), requires_grad=True) for a in initial]
    optimizer = Adam(params, lr=case.lr)
    state = {"t": 0, "m": [None] * len(params), "v": [None] * len(params)}
    for k, touches in enumerate(case.steps):
        if k == case.resume_at and case.resume is not None:
            saved = optimizer.state_dict() if case.resume == "own" else copy.deepcopy(state)
            optimizer = Adam(params, lr=case.lr)
            optimizer.load_state_dict(saved)
            assert_same_state(optimizer, params, ref, state)
        optimizer.zero_grad()
        for param, theirs, touch, shape in zip(params, ref, touches, case.shapes):
            theirs.grad = None
            if touch is None:
                continue
            extent, delivery = touch
            grad = block_gradient(rng, shape, extent, case.dtype)
            theirs.grad = grad.copy()
            if delivery == "assigned":
                param.grad = grad
                continue
            if delivery == "rebound":
                param._buf = np.empty_like(param.data)
            elif delivery == "cleared":
                param._buf = None
            param._accumulate(grad)
        optimizer.step()
        adam_reference(ref, state, case.lr)
        assert_same_state(optimizer, params, ref, state)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_flat_adam_matches_the_per_parameter_reference(dtype, examples):
    if examples is None:
        run = settings(max_examples=TIER1_EXAMPLES, deadline=None, derandomize=True)
    else:
        run = settings(max_examples=examples, deadline=None)

    @run
    @given(case=adam_cases(dtype))
    def check(case: AdamCase) -> None:
        check_adam_case(case)

    check()


def adam_params(dtype=np.float32, seed=0) -> List[Tensor]:
    rng = np.random.default_rng(seed)
    return [
        Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
        for shape in ((3, 2), (2,), (4,))
    ]


def test_two_adams_over_one_list_each_match_the_reference():
    params, ref = adam_params(), adam_params()
    first, second = Adam(params, lr=0.05), Adam(params, lr=0.01)
    states = [{"t": 0, "m": [None] * 3, "v": [None] * 3} for _ in range(2)]
    rng = np.random.default_rng(1)
    for _ in range(4):
        first.zero_grad()
        for param, theirs in zip(params, ref):
            grad = rng.normal(size=param.data.shape).astype(np.float32)
            param._accumulate(grad)  # into whichever optimizer bound ``_buf`` last
            theirs.grad = grad.copy()
        first.step()
        second.step()
        adam_reference(ref, states[0], 0.05)
        adam_reference(ref, states[1], 0.01)
        assert_same_state(first, params, ref, states[0])
        assert_same_state(second, params, ref, states[1])


def test_a_backward_writes_into_the_gradient_arena():
    params = adam_params()
    optimizer = Adam(params, lr=0.05)
    assert all(param._buf is None for param in params)  # nothing bound before a step
    slots = None
    for _ in range(3):
        optimizer.zero_grad()
        for param in params:
            param._accumulate(np.ones_like(param.data))
        if slots is not None:  # the backward wrote into the slots the first step bound
            assert all(param.grad is slot for param, slot in zip(params, slots))
        optimizer.step()
        slots = [param._buf for param in params]
    # The slots are consecutive stretches of one flat vector, in list order.
    start = slots[0].__array_interface__["data"][0]
    offsets = [slot.__array_interface__["data"][0] - start for slot in slots]
    assert offsets == [0, 4 * 6, 4 * 8]


def test_an_adam_that_never_steps_allocates_nothing():
    params = adam_params()
    optimizer = Adam(params, lr=0.05)
    optimizer.zero_grad()
    optimizer.load_state_dict(optimizer.state_dict())  # every slot None
    assert optimizer.state_dict() == {"t": 0, "m": [None] * 3, "v": [None] * 3}
    assert all(param._buf is None for param in params)


def test_a_mixed_dtype_parameter_list_is_refused():
    with pytest.raises(TypeError, match="one float dtype, got float32, float64"):
        Adam(adam_params(np.float32) + adam_params(np.float64), lr=0.05)
