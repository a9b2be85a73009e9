"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the neural-network substrate of the reproduction: the
weight-sharing super-networks (Section 5 of the paper) and the MLP
performance model (Section 6.2) are trained with it.  It implements a
small, explicit autograd ``Tensor`` supporting the operations those
networks need: broadcasting arithmetic, matmul, common activations
(including the squared ReLU that H2O-NAS discovers for CoAtNet-H),
reductions, reshaping, gather (embedding lookup), and masking.

The design is deliberately simple: each ``Tensor`` records its parents
and a closure that accumulates gradients into them; ``backward`` runs a
topological sort and applies the closures in reverse order.

One hot-path mechanism lives here (see DESIGN.md §11): ``_accumulate``
is the one way an op hands a tensor its gradient, whole or as a block
(a tuple of slices) of it.  It keeps a per-node gradient buffer
(``_buf``) that survives ``zero_grad``: a first touch writes into it,
zero-filling it first for a block, and a later touch adds into it in
place, so steady-state training reuses one array per node and a sliced
kernel never builds a full-size temporary.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]


class _Tracking(threading.local):
    enabled = True  # every thread starts tracked


_TRACKING = _Tracking()


@contextmanager
def no_grad() -> Iterator[None]:
    """Inside the block, ops on this thread record no parents and no
    backward: a forward-only pass builds no graph.  A tensor created with
    ``requires_grad=True`` keeps it; other threads keep tracking."""
    previous, _TRACKING.enabled = _TRACKING.enabled, False
    try:
        yield
    finally:
        _TRACKING.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    Broadcasting may have added leading axes and/or stretched axes of
    size one; the gradient of a broadcast input is the sum over the
    broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from size one.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with reverse-mode gradient tracking."""

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_parents",
        "_backward",
        "_buf",
        "name",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Tuple["Tensor", ...] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
        name: Optional[str] = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self._buf: Optional[np.ndarray] = None
        self.requires_grad = requires_grad or (
            _TRACKING.enabled and any(p.requires_grad for p in parents)
        )
        if self.requires_grad:
            self._parents = parents
            self._backward = backward
        else:
            self._parents = ()
            self._backward = None
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a tensor with exactly one element")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a view of the same data with no gradient history."""
        return Tensor(self.data)

    # ------------------------------------------------------------------
    # Gradient accumulation
    # ------------------------------------------------------------------
    def _accumulate(self, part: ArrayLike, block=None) -> None:
        """Add ``part`` into this tensor's gradient, at ``block`` if given.

        ``block`` is an index (a tuple of slices) of ``self.data``:
        a sliced kernel hands over only the block its candidate touched.
        The first touch after ``zero_grad`` writes into the reused
        buffer (``_buf``), zero-filling it first when ``part`` covers
        only a block; a later touch adds into the gradient in place.
        """
        grad = self.grad
        if grad is not None:
            if block is None:
                grad += part
            else:
                grad[block] += part
            return
        buf = self._buf
        if block is None:
            part = np.asarray(part, dtype=np.float64)
            if buf is not None and buf.shape == part.shape:
                np.copyto(buf, part)
                self.grad = buf
            else:
                self.grad = self._buf = np.array(part, copy=True)
            return
        if buf is not None and buf.shape == self.data.shape:
            buf.fill(0.0)
        else:
            buf = self._buf = np.zeros(self.data.shape)
        buf[block] = part
        self.grad = buf

    def zero_grad(self) -> None:
        # The preallocated buffer survives: the next backward pass
        # writes into it instead of allocating a fresh array.
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor to every ancestor.

        ``grad`` defaults to ones (i.e. this tensor must be a scalar
        loss unless an explicit output gradient is provided).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor without grad tracking")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient requires a scalar")
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        seen: set[int] = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)

        def compute() -> np.ndarray:
            return self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return Tensor(compute(), parents=(self, other), backward=backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def compute() -> np.ndarray:
            return -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor(compute(), parents=(self,), backward=backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)

        def compute() -> np.ndarray:
            return self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return Tensor(compute(), parents=(self, other), backward=backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)

        def compute() -> np.ndarray:
            return self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.data.shape)
                )

        return Tensor(compute(), parents=(self, other), backward=backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def compute() -> np.ndarray:
            return self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor(compute(), parents=(self,), backward=backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = as_tensor(other)

        def compute() -> np.ndarray:
            return self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            g = np.asarray(grad)
            if self.requires_grad:
                if b.ndim == 1:
                    if a.ndim == 1:
                        # (k,) @ (k,) -> scalar
                        self._accumulate(g * b)
                    else:
                        # (..., m, k) @ (k,) -> (..., m)
                        self._accumulate(_unbroadcast(g[..., None] * b, a.shape))
                elif a.ndim == 1:
                    # (k,) @ (..., k, n) -> (..., n)
                    ga = (b @ g[..., None])[..., 0]
                    self._accumulate(_unbroadcast(ga, a.shape))
                else:
                    ga = g @ np.swapaxes(b, -1, -2)
                    self._accumulate(_unbroadcast(ga, a.shape))
            if other.requires_grad:
                if a.ndim == 1:
                    if b.ndim == 1:
                        # (k,) @ (k,) -> scalar
                        other._accumulate(g * a)
                    else:
                        # (k,) @ (..., k, n) -> (..., n)
                        gb = a[:, None] * g[..., None, :]
                        other._accumulate(_unbroadcast(gb, b.shape))
                elif b.ndim == 1:
                    # (..., m, k) @ (k,) -> (..., m)
                    gb = (np.swapaxes(a, -1, -2) @ g[..., None])[..., 0]
                    other._accumulate(_unbroadcast(gb, b.shape))
                else:
                    gb = np.swapaxes(a, -1, -2) @ g
                    other._accumulate(_unbroadcast(gb, b.shape))

        return Tensor(compute(), parents=(self, other), backward=backward)

    # ------------------------------------------------------------------
    # Activations and element-wise functions
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        saved = {}

        def compute() -> np.ndarray:
            saved["mask"] = mask = self.data > 0
            return self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * saved["mask"])

        return Tensor(compute(), parents=(self,), backward=backward)

    def squared_relu(self) -> "Tensor":
        """``relu(x)**2`` — the activation H2O-NAS selects for CoAtNet-H."""
        saved = {}

        def compute() -> np.ndarray:
            saved["pos"] = pos = np.maximum(self.data, 0.0)
            return pos * pos

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 2.0 * saved["pos"])

        return Tensor(compute(), parents=(self,), backward=backward)

    def sigmoid(self) -> "Tensor":
        saved = {}

        def compute() -> np.ndarray:
            saved["out"] = out = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
            return out

        def backward(grad: np.ndarray) -> None:
            out = saved["out"]
            self._accumulate(grad * out * (1.0 - out))

        return Tensor(compute(), parents=(self,), backward=backward)

    def swish(self) -> "Tensor":
        """``x * sigmoid(x)`` (a.k.a. SiLU), used in the CNN search space."""
        saved = {}

        def compute() -> np.ndarray:
            saved["sig"] = sig = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
            return self.data * sig

        def backward(grad: np.ndarray) -> None:
            sig = saved["sig"]
            self._accumulate(grad * (sig + self.data * sig * (1.0 - sig)))

        return Tensor(compute(), parents=(self,), backward=backward)

    def gelu(self) -> "Tensor":
        """Tanh approximation of GELU, used in the ViT search space."""
        c = np.sqrt(2.0 / np.pi)
        saved = {}

        def compute() -> np.ndarray:
            inner = c * (self.data + 0.044715 * self.data**3)
            saved["tanh"] = tanh = np.tanh(inner)
            return 0.5 * self.data * (1.0 + tanh)

        def backward(grad: np.ndarray) -> None:
            tanh = saved["tanh"]
            sech2 = 1.0 - tanh**2
            d_inner = c * (1.0 + 3 * 0.044715 * self.data**2)
            self._accumulate(grad * (0.5 * (1.0 + tanh) + 0.5 * self.data * sech2 * d_inner))

        return Tensor(compute(), parents=(self,), backward=backward)

    def tanh(self) -> "Tensor":
        saved = {}

        def compute() -> np.ndarray:
            saved["out"] = out = np.tanh(self.data)
            return out

        def backward(grad: np.ndarray) -> None:
            out = saved["out"]
            self._accumulate(grad * (1.0 - out**2))

        return Tensor(compute(), parents=(self,), backward=backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax along ``axis``, as one fused node.

        The stabilizing max-shift is a constant w.r.t. the gradient (its
        contribution cancels exactly), so it is folded into the node
        rather than composed from ops.  The backward applies the exact
        shifted-exp/sum/div chain rule the composed implementation
        produced.
        """
        saved = {}

        def compute() -> np.ndarray:
            shift = self.data.max(axis=axis, keepdims=True)
            exp = np.exp(np.clip(self.data - shift, -700.0, 700.0))
            total = exp.sum(axis=axis, keepdims=True)
            saved["exp"] = exp
            saved["total"] = total
            return exp / total

        def backward(grad: np.ndarray) -> None:
            exp, total = saved["exp"], saved["total"]
            d_exp = np.array(grad / total, copy=True)
            d_total = _unbroadcast(-grad * exp / (total**2), total.shape)
            d_exp += np.broadcast_to(d_total, exp.shape)
            self._accumulate(_unbroadcast(d_exp * exp, self.data.shape))

        return Tensor(compute(), parents=(self,), backward=backward)

    def exp(self) -> "Tensor":
        saved = {}

        def compute() -> np.ndarray:
            saved["out"] = out = np.exp(np.clip(self.data, -700.0, 700.0))
            return out

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * saved["out"])

        return Tensor(compute(), parents=(self,), backward=backward)

    def log(self) -> "Tensor":
        def compute() -> np.ndarray:
            return np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor(compute(), parents=(self,), backward=backward)

    # ------------------------------------------------------------------
    # Reductions and shape manipulation
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def compute() -> np.ndarray:
            return self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor(compute(), parents=(self,), backward=backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        def compute() -> np.ndarray:
            return self.data.reshape(*shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.data.shape))

        return Tensor(compute(), parents=(self,), backward=backward)

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])  # numpy-style transpose((1, 0))
        axes_t = axes if axes else tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes_t)

        def compute() -> np.ndarray:
            return self.data.transpose(axes_t)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor(compute(), parents=(self,), backward=backward)

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Select rows by integer index — the embedding-lookup primitive.

        ``indices`` has any shape; the output has shape
        ``indices.shape + (row_width,)``.
        """
        indices = np.asarray(indices, dtype=np.int64)
        saved = {}

        def compute() -> np.ndarray:
            saved["idx"] = idx = np.asarray(indices, dtype=np.int64)
            return self.data[idx]

        def backward(grad: np.ndarray) -> None:
            g = np.zeros_like(self.data)
            np.add.at(g, saved["idx"], grad)
            self._accumulate(g)

        return Tensor(compute(), parents=(self,), backward=backward)

    def mask(self, mask_array: np.ndarray) -> "Tensor":
        """Multiply by a constant 0/1 mask (broadcastable).

        This is the fine-grained weight-sharing primitive of the
        super-network: narrower candidate layers reuse the upper-left
        sub-matrix of the widest weights by masking the rest out.
        """
        mask_array = np.asarray(mask_array, dtype=np.float64)

        def compute() -> np.ndarray:
            return self.data * mask_array

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * mask_array, self.data.shape))

        return Tensor(compute(), parents=(self,), backward=backward)

    def clip_norm_value(self) -> float:
        """L2 norm of the data (convenience for diagnostics)."""
        return float(np.linalg.norm(self.data))


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a ``Tensor`` (no-op for tensors)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def concatenate(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def compute() -> np.ndarray:
        return np.concatenate([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor(compute(), parents=tuple(tensors), backward=backward)


def stack_mean(tensors: Sequence[Tensor]) -> Tensor:
    """Mean of several same-shaped tensors (cross-shard weight update).

    A single graph node: the previous left-fold built an O(n)-deep
    add chain per weight update.  The forward accumulates in the same
    left-to-right order, and every input receives the same ``grad / n``
    array the chain produced, so values are bit-identical.
    """
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("stack_mean requires at least one tensor")
    inv = 1.0 / len(tensors)

    def compute() -> np.ndarray:
        total = np.array(tensors[0].data, dtype=np.float64, copy=True)
        for tensor in tensors[1:]:
            total += tensor.data
        return total * inv

    def backward(grad: np.ndarray) -> None:
        g = grad * inv
        for tensor in tensors:
            if tensor.requires_grad:
                tensor._accumulate(_unbroadcast(g, tensor.data.shape))

    return Tensor(compute(), parents=tuple(tensors), backward=backward)
