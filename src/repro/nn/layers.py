"""Neural-network layers on top of the autograd tensor.

The layers here are the building blocks of the weight-sharing
super-networks (Section 5) and of the MLP performance model
(Section 6.2):

* :class:`Dense` — an ordinary fully-connected layer.
* :class:`MaskedDense` — a Dense whose *active* input/output widths can
  be set per forward pass; inactive rows/columns are masked to zero so
  all candidate widths share the upper-left sub-matrix of one weight
  (fine-grained weight sharing, point (3) in Figure 3 of the paper).
* :class:`LowRankDense` — two shared factor matrices whose active rank
  is maskable (point (4) in Figure 3).
* :class:`MaskedEmbedding` — one table at the maximum width; narrower
  candidates mask all but the first D columns (point (1) in Figure 3).

Each of the four is one autograd node from :mod:`repro.nn.fused`: a
prefix mask is a BLAS call on the active sub-matrix, and a node with no
derived arrays baked into closures is what tape replay needs.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping as AbcMapping
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from . import initializers
from .fused import dense_act, masked_gather
from .tensor import Tensor

Activation = Callable[[Tensor], Tensor]

ACTIVATIONS: Dict[str, Activation] = {
    "linear": lambda x: x,
    "relu": Tensor.relu,
    "squared_relu": Tensor.squared_relu,
    "sigmoid": Tensor.sigmoid,
    "swish": Tensor.swish,
    "gelu": Tensor.gelu,
    "tanh": Tensor.tanh,
}


def activation(name: str) -> Activation:
    """Look up an activation function by search-space name."""
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; expected one of {sorted(ACTIVATIONS)}"
        ) from None


class Module:
    """Base class: tracks parameters and child modules by attribute."""

    def parameters(self) -> List[Tensor]:
        params: List[Tensor] = []
        seen: set[int] = set()
        self._collect(params, seen)
        return params

    def _collect(self, params: List[Tensor], seen: set) -> None:
        for value in self.__dict__.values():
            self._collect_value(value, params, seen)

    def _collect_value(self, value, params: List[Tensor], seen: set) -> None:
        """Collect from one attribute value, recursing into containers.

        Dict/Mapping values are traversed in insertion order — modules
        that keep parameters or children in dicts (e.g. the DLRM
        per-vocab embedding tables) previously lost them silently:
        ``parameters()`` skipped them, so optimizers never updated them
        and ``state_dict()`` checkpoints dropped them.
        """
        if isinstance(value, Tensor):
            if value.requires_grad and id(value) not in seen:
                seen.add(id(value))
                params.append(value)
        elif isinstance(value, Module):
            value._collect(params, seen)
        elif isinstance(value, (list, tuple)):
            for item in value:
                self._collect_value(item, params, seen)
        elif isinstance(value, AbcMapping):
            for item in value.values():
                self._collect_value(item, params, seen)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Copies of all parameter arrays, keyed by traversal index.

        Traversal order is deterministic (attribute insertion order), so
        the same module class always produces the same keys — the
        contract :meth:`load_state_dict` and the checkpoint subsystem
        (:mod:`repro.runtime`) rely on.
        """
        return OrderedDict(
            (f"param_{i}", param.data.copy())
            for i, param in enumerate(self.parameters())
        )

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Restore parameters in place from :meth:`state_dict` output."""
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} parameters, module has {len(params)}"
            )
        for i, param in enumerate(params):
            key = f"param_{i}"
            if key not in state:
                raise ValueError(f"state missing {key!r}")
            value = np.asarray(state[key])
            if value.shape != param.data.shape:
                raise ValueError(
                    f"{key}: shape {value.shape} does not match parameter "
                    f"{param.data.shape} (different architecture?)"
                )
            param.data[:] = value

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Dense(Module):
    """Fully-connected layer ``y = act(x @ W + b)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        activation_name: str = "linear",
        use_bias: bool = True,
    ):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            initializers.glorot_uniform(rng, (in_features, out_features)),
            requires_grad=True,
            name="dense.weight",
        )
        self.bias: Optional[Tensor] = None
        if use_bias:
            self.bias = Tensor(np.zeros(out_features), requires_grad=True, name="dense.bias")
        activation(activation_name)  # reject unknown names at construction
        self._activation_name = activation_name

    def forward(self, x: Tensor) -> Tensor:
        return dense_act(x, self.weight, self.bias, self._activation_name)


class MaskedDense(Module):
    """Dense layer with runtime-selectable active input/output widths.

    One weight matrix is allocated at the maximum size; a candidate
    sub-network with smaller widths uses the upper-left sub-matrix and
    masks the remainder, so every candidate contributes gradient signal
    to the shared weights it touches.
    """

    def __init__(
        self,
        max_in: int,
        max_out: int,
        rng: np.random.Generator,
        activation_name: str = "relu",
        use_bias: bool = True,
    ):
        if max_in <= 0 or max_out <= 0:
            raise ValueError("MaskedDense widths must be positive")
        self.max_in = max_in
        self.max_out = max_out
        self.weight = Tensor(
            initializers.he_normal(rng, (max_in, max_out)),
            requires_grad=True,
            name="masked_dense.weight",
        )
        self.bias: Optional[Tensor] = None
        if use_bias:
            self.bias = Tensor(np.zeros(max_out), requires_grad=True, name="masked_dense.bias")
        activation(activation_name)  # reject unknown names at construction
        self._activation_name = activation_name

    def forward(self, x: Tensor, active_in: Optional[int] = None, active_out: Optional[int] = None) -> Tensor:
        """Apply the layer using only the ``active_in`` x ``active_out`` block.

        The input must already be at width ``max_in`` (padded/masked
        upstream); the output stays at width ``max_out`` with inactive
        columns exactly zero, so layers compose without reshaping.
        """
        active_in = self.max_in if active_in is None else active_in
        active_out = self.max_out if active_out is None else active_out
        if not (0 < active_in <= self.max_in):
            raise ValueError(f"active_in {active_in} outside (0, {self.max_in}]")
        if not (0 < active_out <= self.max_out):
            raise ValueError(f"active_out {active_out} outside (0, {self.max_out}]")
        return dense_act(
            x,
            self.weight,
            self.bias,
            self._activation_name,
            active=(active_in, active_out),
        )


class LowRankDense(Module):
    """Factorized dense layer ``y = act((x @ U) @ V)`` with maskable rank.

    Both factors are allocated at the maximum rank; smaller ranks mask
    the trailing columns of ``U`` and rows of ``V`` (fine-grained
    weight sharing across rank candidates).
    """

    def __init__(
        self,
        max_in: int,
        max_out: int,
        max_rank: int,
        rng: np.random.Generator,
        activation_name: str = "relu",
    ):
        if max_rank <= 0:
            raise ValueError("max_rank must be positive")
        self.max_in = max_in
        self.max_out = max_out
        self.max_rank = max_rank
        self.factor_u = Tensor(
            initializers.he_normal(rng, (max_in, max_rank)),
            requires_grad=True,
            name="lowrank.u",
        )
        self.factor_v = Tensor(
            initializers.he_normal(rng, (max_rank, max_out)),
            requires_grad=True,
            name="lowrank.v",
        )
        self.bias = Tensor(np.zeros(max_out), requires_grad=True, name="lowrank.bias")
        activation(activation_name)  # reject unknown names at construction
        self._activation_name = activation_name

    def forward(
        self,
        x: Tensor,
        active_in: Optional[int] = None,
        active_out: Optional[int] = None,
        active_rank: Optional[int] = None,
    ) -> Tensor:
        active_in = self.max_in if active_in is None else active_in
        active_out = self.max_out if active_out is None else active_out
        active_rank = self.max_rank if active_rank is None else active_rank
        if not (0 < active_rank <= self.max_rank):
            raise ValueError(f"active_rank {active_rank} outside (0, {self.max_rank}]")
        hidden = dense_act(
            x, self.factor_u, None, "linear", active=(active_in, active_rank)
        )
        return dense_act(
            hidden,
            self.factor_v,
            self.bias,
            self._activation_name,
            active=(active_rank, active_out),
        )


class MaskedEmbedding(Module):
    """Embedding table with a maskable active width.

    One table of shape ``(vocab, max_width)`` is allocated; a candidate
    with width ``D < max_width`` reuses the first ``D`` columns and sees
    zeros elsewhere — the paper's fine-grained embedding-width sharing.
    """

    def __init__(self, vocab_size: int, max_width: int, rng: np.random.Generator):
        if vocab_size <= 0 or max_width <= 0:
            raise ValueError("embedding dimensions must be positive")
        self.vocab_size = vocab_size
        self.max_width = max_width
        self.table = Tensor(
            initializers.embedding_normal(rng, (vocab_size, max_width)),
            requires_grad=True,
            name="embedding.table",
        )

    def forward(
        self,
        indices: np.ndarray,
        active_width: Optional[int] = None,
        wrap: Optional[int] = None,
    ) -> Tensor:
        """Masked lookup of ``indices``, optionally wrapped modulo ``wrap``.

        ``wrap`` lets a caller address only the first ``wrap`` rows (the
        fine vocab-sharing ablation, where a smaller vocabulary wraps
        its ids into a shared table).  The modulus is applied *inside*
        the lookup node, so the raw index array can be a live view of a
        tape input buffer.
        """
        active_width = self.max_width if active_width is None else active_width
        if not (0 < active_width <= self.max_width):
            raise ValueError(f"active_width {active_width} outside (0, {self.max_width}]")
        modulus = self.vocab_size if wrap is None else min(int(wrap), self.vocab_size)
        if modulus < 1:
            raise ValueError(f"wrap {wrap} must be >= 1")
        return masked_gather(
            self.table, indices, None, modulus, active_width=active_width
        )


class LayerNorm(Module):
    """Layer normalization over the last axis with learnable gain/bias.

    Composed from autograd primitives (mean, variance via squares,
    inverse square root through ``** -0.5``), so gradients flow through
    the statistics exactly as in a framework implementation.
    """

    def __init__(self, width: int, eps: float = 1e-5):
        if width < 1:
            raise ValueError("width must be >= 1")
        self.width = width
        self.eps = eps
        self.gain = Tensor(np.ones(width), requires_grad=True, name="layernorm.gain")
        self.bias = Tensor(np.zeros(width), requires_grad=True, name="layernorm.bias")

    def forward(self, x: Tensor, active_width: Optional[int] = None) -> Tensor:
        """Normalize over the last axis.

        With ``active_width`` set (the super-network case), statistics
        are computed over the first ``active_width`` channels only and
        the inactive channels stay exactly zero, preserving the masked
        weight-sharing contract.
        """
        if active_width is None:
            mean = x.mean(axis=-1, keepdims=True)
            centered = x - mean
            variance = (centered * centered).mean(axis=-1, keepdims=True)
            inv_std = (variance + self.eps) ** -0.5
            return centered * inv_std * self.gain + self.bias
        if not (0 < active_width <= self.width):
            raise ValueError(f"active_width {active_width} outside (0, {self.width}]")
        mask = np.zeros(self.width)
        mask[:active_width] = 1.0
        masked = x.mask(mask)
        mean = masked.sum(axis=-1, keepdims=True) * (1.0 / active_width)
        centered = (masked - mean).mask(mask)
        variance = (centered * centered).sum(axis=-1, keepdims=True) * (
            1.0 / active_width
        )
        inv_std = (variance + self.eps) ** -0.5
        return centered * inv_std * self.gain.mask(mask) + self.bias.mask(mask)


class Sequential(Module):
    """A simple forward pipeline of modules."""

    def __init__(self, layers: Sequence[Module]):
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class MLP(Module):
    """Plain multi-layer perceptron used by the performance model."""

    def __init__(
        self,
        in_features: int,
        hidden_sizes: Iterable[int],
        out_features: int,
        rng: np.random.Generator,
        activation_name: str = "relu",
    ):
        sizes = [in_features, *hidden_sizes]
        self.hidden = [
            Dense(nin, nout, rng, activation_name=activation_name)
            for nin, nout in zip(sizes[:-1], sizes[1:])
        ]
        self.head = Dense(sizes[-1], out_features, rng, activation_name="linear")

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.hidden:
            x = layer(x)
        return self.head(x)
