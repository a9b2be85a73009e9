"""Fused autograd kernels for the layer hot path.

The composed layer implementations build 5–8 closure nodes per layer
call (mask, matmul, mask, add, activation, …), each allocating a fresh
intermediate array and a Python closure.  The kernels here collapse the
common patterns into one node each:

* :func:`dense_act` — ``act((x @ (W·mask)) + b·mask)`` as a single
  node covering Dense, MaskedDense and each LowRankDense factor;
* :func:`masked_gather` — embedding lookup with column masking and
  (for the fine vocab-sharing ablation) id wrap-around folded into the
  node.

Supernet masks are always *prefix blocks* (``mask[:active_in,
:active_out] = 1``), so both kernels accept the active extents directly
(``active=`` / ``active_width=``) and run the BLAS call on the sliced
sub-matrix instead of multiplying by a full-size 0/1 mask.  That is
the dominant win on the train step: a candidate at half width pays a
quarter of the dgemm flops, exactly as the child network would on real
hardware.  The sliced math is equivalent to the masked math — masked
rows/columns contribute exact zeros to every dot product, and no
gradient ever reaches a masked-out parameter entry either way.

The sliced backward hands each gradient over as the block it covers
(``Tensor._accumulate(part, block)``), so no full-size zero temporary
is built per parameter per group; the sliced forward builds its padded
output once, filling the inactive tail with ``act(0)`` from a table
computed at import.  Every float operation is the one a full-size
temporary would run, in the same order: only ``+ 0.0`` outside the
block is skipped.

Each kernel's backward applies the same NumPy expressions the composed
graph applied, in the same order, so gradients agree with the composed
path to float64 round-off (gradcheck pins them against central finite
differences).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .tensor import Tensor, _unbroadcast

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


_GELU_C = np.sqrt(2.0 / np.pi)


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


def dense_act(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    act_name: str,
    weight_mask: Optional[np.ndarray] = None,
    bias_mask: Optional[np.ndarray] = None,
    active: Optional[Tuple[int, int]] = None,
) -> Tensor:
    """``act((x @ (weight·weight_mask)) + bias·bias_mask)`` in one node.

    Masks are constant 0/1 arrays (or ``None`` for the unmasked Dense
    case).  ``x`` may have any leading shape; ``weight`` is 2-D.
    Masked weight gradients are re-masked on the way in, matching the
    composed ``Tensor.mask`` backward.

    ``active=(active_in, active_out)`` is the fast path for prefix
    masks: the matmul runs on ``weight[:active_in, :active_out]`` and
    the inactive output columns are filled with ``act(0)`` — the value
    the masked matmul would have produced there.  Mutually exclusive
    with explicit masks.
    """
    try:
        act_fwd, act_bwd = ACT_KERNELS[act_name]
    except KeyError:
        raise ValueError(
            f"unknown activation {act_name!r}; expected one of {sorted(ACT_KERNELS)}"
        ) from None
    parents = (x, weight) if bias is None else (x, weight, bias)
    saved: dict = {}

    if active is not None:
        if weight_mask is not None or bias_mask is not None:
            raise ValueError("pass either active extents or explicit masks, not both")
        active_in, active_out = active
        max_in, max_out = weight.data.shape
        if not (0 < active_in <= max_in and 0 < active_out <= max_out):
            raise ValueError(f"active extents {active} outside weight shape {weight.data.shape}")
        act_zero = _ACT_ZERO[act_name]
        w_block = (slice(None, active_in), slice(None, active_out))
        x_block = (Ellipsis, slice(None, active_in))

        def compute_sliced() -> np.ndarray:
            w = weight.data[w_block]
            saved["w"] = w
            pre = x.data[x_block] @ w
            if bias is not None:
                pre += bias.data[:active_out]
            out_active = act_fwd(pre, saved)
            if active_out == max_out:
                return out_active
            out = np.empty(out_active.shape[:-1] + (max_out,))
            out[..., :active_out] = out_active
            out[..., active_out:] = act_zero
            return out

        def backward_sliced(grad: np.ndarray) -> None:
            # Gradient flowing into inactive output columns never reaches
            # any parameter through the masked matmul (the mask zeroes the
            # corresponding weight columns), so only the active slice of
            # ``grad`` participates — identical to the masked backward.
            g_pre = act_bwd(grad[..., :active_out], saved)
            if bias is not None and bias.requires_grad:
                bias._accumulate(_unbroadcast(g_pre, (active_out,)), w_block[1:])
            if weight.requires_grad:
                xs = x.data[x_block]
                if xs.ndim == 1:
                    sub = np.outer(xs, g_pre)
                else:
                    sub = np.swapaxes(xs, -1, -2) @ g_pre
                weight._accumulate(_unbroadcast(sub, (active_in, active_out)), w_block)
            if x.requires_grad:
                sub = g_pre @ saved["w"].T
                x._accumulate(_unbroadcast(sub, x.data.shape[:-1] + (active_in,)), x_block)

        return Tensor(compute_sliced(), parents=parents, backward=backward_sliced)

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


def masked_gather(
    table: Tensor,
    indices: np.ndarray,
    col_mask: Optional[np.ndarray],
    modulus: int,
    active_width: Optional[int] = None,
) -> Tensor:
    """Column-masked embedding lookup with id wrap, as one node.

    Equivalent to ``table.mask(col_mask).gather_rows(indices % modulus)``
    — the mask commutes with the row gather elementwise — but performs
    one fancy-index read instead of materializing the masked table.

    ``active_width`` is the fast path for prefix masks: only the first
    ``active_width`` columns are read (and scattered into on backward),
    the rest stay exactly zero.  Mutually exclusive with ``col_mask``.
    """
    saved: dict = {}

    if active_width is not None:
        if col_mask is not None:
            raise ValueError("pass either active_width or col_mask, not both")
        max_width = table.data.shape[1]
        if not (0 < active_width <= max_width):
            raise ValueError(f"active_width {active_width} outside (0, {max_width}]")

        cols = (slice(None), slice(None, active_width))

        def compute_sliced() -> np.ndarray:
            saved["idx"] = idx = np.asarray(indices, dtype=np.int64) % modulus
            if active_width == max_width:
                return table.data[idx]
            out = np.empty(idx.shape + (max_width,))
            out[..., :active_width] = table.data[idx, :active_width]
            out[..., active_width:] = 0.0
            return out

        def backward_sliced(grad: np.ndarray) -> None:
            part = grad[..., :active_width]
            if table.grad is None:
                # First touch: scatter straight into the zeroed buffer.
                table._accumulate(0.0, cols)
                np.add.at(table.grad[cols], saved["idx"], part)
            else:
                # A later touch sums its rows apart, then adds them into
                # the block: scattering into the running gradient would
                # add them in another order.
                g = np.zeros((table.data.shape[0], active_width))
                np.add.at(g, saved["idx"], part)
                table._accumulate(g, cols)

        return Tensor(compute_sliced(), parents=(table,), backward=backward_sliced)

    col_mask = np.asarray(col_mask, dtype=np.float64)

    def compute() -> np.ndarray:
        saved["idx"] = idx = np.asarray(indices, dtype=np.int64) % modulus
        return table.data[idx] * col_mask

    def backward(grad: np.ndarray) -> None:
        g = np.zeros_like(table.data)
        np.add.at(g, saved["idx"], grad * col_mask)
        table._accumulate(g)

    return Tensor(compute(), parents=(table,), backward=backward)
