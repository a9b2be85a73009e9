"""Fused autograd kernels for the layer hot path.

The composed layer implementations build 5–8 closure nodes per layer
call (mask, matmul, mask, add, activation, …), each allocating a fresh
intermediate array and a Python closure.  The kernels here collapse a
candidate's pass into a handful of nodes:

* :func:`dense_act` — ``act((x @ (W·mask)) + b·mask)`` as a single
  node, the unmasked Dense (or an explicitly masked one);
* :func:`dense_chain` — a chain of sliced dense steps as one node: a
  MaskedDense, both factors of a LowRankDense, or every active layer
  of an elastic MLP stack;
* :func:`embedding_interaction` — the DLRM interaction vector (the
  bottom MLP's output and every table's column-masked, id-wrapped
  lookup) as one node.

Supernet masks are always *prefix blocks* (``mask[:active_in,
:active_out] = 1``), so the sliced kernels take the active extents and
run the BLAS call on the sliced sub-matrix instead of multiplying by a
full-size 0/1 mask.  That is the dominant win on the train step: a
candidate at half width pays a quarter of the dgemm flops, exactly as
the child network would on real hardware.  The sliced math is
equivalent to the masked math — masked rows/columns contribute exact
zeros to every dot product, and no gradient ever reaches a masked-out
parameter entry either way.

The sliced backwards hand each gradient over as the block it covers
(``Tensor._accumulate(part, block)``), so no full-size zero temporary
is built per parameter per group; a padded output is built once, its
inactive tail filled with ``act(0)`` from a table computed at import.
Every float operation is the one a node per layer and per table ran,
on operands of the same shape and strides, in the same order, so the
fused passes are bit-identical to it; only ``+ 0.0`` outside a block is
skipped.  With explicit masks, :func:`dense_act`'s gradients equal the
composed ``Tensor`` path's bit for bit; the sliced ones agree with it
to round-off (the sliced matmul's shorter reduction may sum in another
order).  A kernel computes in its operands' one dtype (float32 for the
networks' parameters) and refuses mixed ones;
``tests/test_kernel_sweep.py`` pins every path against float64 central
differences and the chain and interaction nodes against a node per
step, bit for bit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .tensor import Tensor, _same_dtype, _unbroadcast

# ---------------------------------------------------------------------------
# Activation kernels: forward(pre, saved) -> out; backward(grad, saved) -> d_pre
# The expressions mirror the Tensor method implementations exactly.
# ---------------------------------------------------------------------------


def _linear_fwd(pre: np.ndarray, saved: dict) -> np.ndarray:
    return pre


def _linear_bwd(grad: np.ndarray, saved: dict) -> np.ndarray:
    return grad


def _relu_fwd(pre: np.ndarray, saved: dict) -> np.ndarray:
    saved["act"] = mask = pre > 0
    return pre * mask


def _relu_bwd(grad: np.ndarray, saved: dict) -> np.ndarray:
    return grad * saved["act"]


def _squared_relu_fwd(pre: np.ndarray, saved: dict) -> np.ndarray:
    saved["act"] = pos = np.maximum(pre, 0.0)
    return pos * pos


def _squared_relu_bwd(grad: np.ndarray, saved: dict) -> np.ndarray:
    return grad * 2.0 * saved["act"]


def _sigmoid_fwd(pre: np.ndarray, saved: dict) -> np.ndarray:
    saved["act"] = out = 1.0 / (1.0 + np.exp(-np.clip(pre, -60.0, 60.0)))
    return out


def _sigmoid_bwd(grad: np.ndarray, saved: dict) -> np.ndarray:
    out = saved["act"]
    return grad * out * (1.0 - out)


def _swish_fwd(pre: np.ndarray, saved: dict) -> np.ndarray:
    sig = 1.0 / (1.0 + np.exp(-np.clip(pre, -60.0, 60.0)))
    saved["act"] = (pre, sig)
    return pre * sig


def _swish_bwd(grad: np.ndarray, saved: dict) -> np.ndarray:
    pre, sig = saved["act"]
    return grad * (sig + pre * sig * (1.0 - sig))


_GELU_C = float(np.sqrt(2.0 / np.pi))  # a Python float: keeps the dtype


def _gelu_fwd(pre: np.ndarray, saved: dict) -> np.ndarray:
    inner = _GELU_C * (pre + 0.044715 * pre**3)
    tanh = np.tanh(inner)
    saved["act"] = (pre, tanh)
    return 0.5 * pre * (1.0 + tanh)


def _gelu_bwd(grad: np.ndarray, saved: dict) -> np.ndarray:
    pre, tanh = saved["act"]
    sech2 = 1.0 - tanh**2
    d_inner = _GELU_C * (1.0 + 3 * 0.044715 * pre**2)
    return grad * (0.5 * (1.0 + tanh) + 0.5 * pre * sech2 * d_inner)


def _tanh_fwd(pre: np.ndarray, saved: dict) -> np.ndarray:
    saved["act"] = out = np.tanh(pre)
    return out


def _tanh_bwd(grad: np.ndarray, saved: dict) -> np.ndarray:
    return grad * (1.0 - saved["act"] ** 2)


ActKernel = Tuple[
    Callable[[np.ndarray, dict], np.ndarray], Callable[[np.ndarray, dict], np.ndarray]
]

ACT_KERNELS: Dict[str, ActKernel] = {
    "linear": (_linear_fwd, _linear_bwd),
    "relu": (_relu_fwd, _relu_bwd),
    "squared_relu": (_squared_relu_fwd, _squared_relu_bwd),
    "sigmoid": (_sigmoid_fwd, _sigmoid_bwd),
    "swish": (_swish_fwd, _swish_bwd),
    "gelu": (_gelu_fwd, _gelu_bwd),
    "tanh": (_tanh_fwd, _tanh_bwd),
}

#: ``act(0)`` per activation: what a masked matmul leaves in an inactive
#: output column, and so the sliced forward's fill value there
_ACT_ZERO: Dict[str, float] = {
    name: float(fwd(np.zeros(()), {})) for name, (fwd, _) in ACT_KERNELS.items()
}




def _act_kernel(act_name: str) -> ActKernel:
    try:
        return ACT_KERNELS[act_name]
    except KeyError:
        raise ValueError(
            f"unknown activation {act_name!r}; expected one of {sorted(ACT_KERNELS)}"
        ) from None


def dense_act(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    act_name: str,
    weight_mask: Optional[np.ndarray] = None,
    bias_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """``act((x @ (weight·weight_mask)) + bias·bias_mask)`` in one node.

    Masks are constant 0/1 arrays (or ``None`` for the unmasked Dense
    case).  ``x`` may have any leading shape; ``weight`` is 2-D.
    Masked weight gradients are re-masked on the way in, matching the
    composed ``Tensor.mask`` backward.  Prefix masks are
    :func:`dense_chain`'s active extents instead.
    """
    act_fwd, act_bwd = _act_kernel(act_name)
    parents = (x, weight) if bias is None else (x, weight, bias)
    _same_dtype(parents)
    saved: dict = {}
    dtype = weight.data.dtype  # 0/1 masks cast exactly
    weight_mask = None if weight_mask is None else np.asarray(weight_mask, dtype=dtype)
    bias_mask = None if bias_mask is None else np.asarray(bias_mask, dtype=dtype)

    def compute() -> np.ndarray:
        w = weight.data if weight_mask is None else weight.data * weight_mask
        saved["w"] = w
        pre = x.data @ w
        if bias is not None:
            b = bias.data if bias_mask is None else bias.data * bias_mask
            pre = pre + b
        return act_fwd(pre, saved)

    def backward(grad: np.ndarray) -> None:
        g_pre = act_bwd(grad, saved)
        if bias is not None and bias.requires_grad:
            gb = _unbroadcast(g_pre, bias.data.shape)
            bias._accumulate(gb if bias_mask is None else gb * bias_mask)
        if weight.requires_grad:
            if x.data.ndim == 1:
                gw = np.outer(x.data, g_pre)
            else:
                gw = np.swapaxes(x.data, -1, -2) @ g_pre
            gw = _unbroadcast(gw, weight.data.shape)
            weight._accumulate(gw if weight_mask is None else gw * weight_mask)
        if x.requires_grad:
            gx = g_pre @ saved["w"].T
            x._accumulate(_unbroadcast(gx, x.data.shape))

    return Tensor(compute(), parents=parents, backward=backward)


#: one step of a :func:`dense_chain`:
#: ``(weight, bias or None, act_name, active_in, active_out)``
Step = Tuple[Tensor, Optional[Tensor], str, int, int]


def dense_chain(x: Tensor, steps: Sequence[Step]) -> Tensor:
    """Sliced ``act(h[..., :in] @ W[:in, :out] + b[:out])`` steps, one node.

    Each step reads the active prefix of the one before (its
    ``active_in`` is the previous ``active_out``) and the chain's output
    is the last step's, padded to its weight's full width with
    ``act(0)`` — what the masked matmul leaves in an inactive column.
    A MaskedDense is a chain of one step, a LowRankDense of two, an
    elastic MLP stack of one or two per active layer.

    Each intermediate lives in a buffer at its weight's full width and
    is read through its ``[..., :active]`` view, and so is its gradient,
    so every NumPy call sees the operands a node per step would hand it,
    strides included; only the block is ever written or read, so the
    buffers are ``np.empty``.  The backward is one reverse loop that
    hands each parameter its block once (``Tensor._accumulate``).
    """
    if not steps:
        raise ValueError("a dense chain needs at least one step")
    kernels: List[ActKernel] = []
    parents: List[Tensor] = [x]
    #: whether step k's output needs a gradient (as its own node would)
    needs_grad: List[bool] = []
    for k, (weight, bias, act_name, active_in, active_out) in enumerate(steps):
        if not (0 < active_in <= weight.data.shape[0] and 0 < active_out <= weight.data.shape[1]):
            raise ValueError(
                f"active extents {(active_in, active_out)} outside weight shape {weight.data.shape}"
            )
        if k and active_in != steps[k - 1][4]:
            raise ValueError(f"step {k} reads {active_in} columns of {steps[k - 1][4]} active")
        kernels.append(_act_kernel(act_name))
        parents += (weight,) if bias is None else (weight, bias)
        needs_grad.append(any(p.requires_grad for p in parents))
    _same_dtype(parents)
    saved: List[dict] = []

    h = x.data
    for (weight, bias, _, active_in, active_out), (act_fwd, _) in zip(steps, kernels):
        state = {"x": h[..., :active_in], "w": weight.data[:active_in, :active_out]}
        pre = state["x"] @ state["w"]
        if bias is not None:
            pre += bias.data[:active_out]
        out = act_fwd(pre, state)
        saved.append(state)
        if active_out == weight.data.shape[1]:
            h = out
        else:
            h = np.empty(out.shape[:-1] + weight.data.shape[1:], dtype=out.dtype)
            h[..., :active_out] = out
    last_out = steps[-1][4]
    if last_out < h.shape[-1]:
        h[..., last_out:] = _ACT_ZERO[steps[-1][2]]

    def backward(grad: np.ndarray) -> None:
        g_out = grad[..., :last_out]
        for k in reversed(range(len(steps))):
            weight, bias, _, active_in, active_out = steps[k]
            state = saved[k]
            g_pre = kernels[k][1](g_out, state)
            if bias is not None and bias.requires_grad:
                bias._accumulate(_unbroadcast(g_pre, (active_out,)), (slice(None, active_out),))
            if weight.requires_grad:
                xs = state["x"]
                sub = np.outer(xs, g_pre) if xs.ndim == 1 else np.swapaxes(xs, -1, -2) @ g_pre
                weight._accumulate(
                    _unbroadcast(sub, (active_in, active_out)),
                    (slice(None, active_in), slice(None, active_out)),
                )
            if k == 0:
                if x.requires_grad:
                    x._accumulate(g_pre @ state["w"].T, (Ellipsis, slice(None, active_in)))
                return
            if not needs_grad[k - 1]:
                return
            g_out = g_pre @ state["w"].T
            width = steps[k - 1][0].data.shape[1]
            if active_in < width:
                buf = np.empty(g_out.shape[:-1] + (width,), dtype=g_out.dtype)
                buf[..., :active_in] = g_out
                g_out = buf[..., :active_in]

    return Tensor(h, parents=tuple(parents), backward=backward)


def embedding_interaction(
    dense: Tensor,
    tables: Sequence[Tensor],
    ids: np.ndarray,
    widths: Sequence[int],
    moduli: Sequence[int],
) -> Tensor:
    """``[dense | lookup_0 | lookup_1 | ...]``, the DLRM interaction, as one node.

    ``lookup_t`` is ``tables[t][ids[:, t] % moduli[t], :widths[t]]``
    zero-padded to the table's full width: the column-masked lookup of
    a fine-grained embedding-width candidate, its ids wrapped into the
    first ``moduli[t]`` rows (the fine vocab-sharing ablation wraps a
    smaller vocabulary into a shared table).  ``dense`` (the bottom
    MLP's output) and every lookup are written straight into the
    output.

    The backward hands ``dense`` its columns and scatters each table's
    (``np.add.at``) into the active columns of its gradient: straight
    into the zeroed buffer on a first touch; on a later touch into a
    ``(vocab, width)`` temporary added into the block, since scattering
    into the running gradient would add the rows in another order.
    """
    _same_dtype([dense, *tables])
    if not (len(tables) == len(widths) == len(moduli) == ids.shape[1]):
        raise ValueError("need one id column, width and modulus per table")
    rows, cols = dense.data.shape
    spans = []  # (table, wrapped ids, first column, active width)
    for table, width, modulus, column in zip(tables, widths, moduli, ids.T):
        vocab, max_width = table.data.shape
        if not (0 < width <= max_width):
            raise ValueError(f"active width {width} outside (0, {max_width}]")
        if not (0 < modulus <= vocab):
            raise ValueError(f"id modulus {modulus} outside (0, {vocab}]")
        spans.append((table, np.asarray(column, dtype=np.int64) % modulus, cols, width))
        cols += max_width
    out = np.empty((rows, cols), dtype=dense.data.dtype)
    out[:, : dense.data.shape[1]] = dense.data
    for table, idx, start, width in spans:
        out[:, start : start + width] = table.data[idx, :width]
        out[:, start + width : start + table.data.shape[1]] = 0.0

    def backward(grad: np.ndarray) -> None:
        if dense.requires_grad:
            dense._accumulate(grad[:, : dense.data.shape[1]])
        for table, idx, start, width in spans:
            if not table.requires_grad:
                continue
            part = grad[:, start : start + width]
            block = (slice(None), slice(None, width))
            if table.grad is None:
                table._accumulate(0.0, block)
                np.add.at(table.grad[block], idx, part)
            else:
                g = np.zeros((table.data.shape[0], width), dtype=table.data.dtype)
                np.add.at(g, idx, part)
                table._accumulate(g, block)

    return Tensor(out, parents=(dense, *tables), backward=backward)
