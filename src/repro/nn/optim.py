"""Gradient-descent optimizers for the autograd tensors."""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .tensor import Tensor


class Optimizer:
    """Base optimizer holding a fixed list of parameters."""

    def __init__(self, params: List[Tensor], lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _aligned(self, per_id: Dict[int, np.ndarray]) -> List[Optional[np.ndarray]]:
        """Per-id slot arrays re-keyed to parameter positions."""
        return [per_id.get(id(p)) for p in self.params]

    def _check_slots(self, slots: List[Optional[np.ndarray]], name: str) -> None:
        if len(slots) != len(self.params):
            raise ValueError(
                f"{name}: state has {len(slots)} slots for {len(self.params)} "
                "parameters"
            )
        for slot, param in zip(slots, self.params):
            if slot is not None and np.shape(slot) != param.data.shape:
                raise ValueError(
                    f"{name}: slot shape {np.shape(slot)} does not match "
                    f"parameter {param.data.shape}"
                )


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        params: List[Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(params, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        for param in self.params:
            if param.grad is None:
                continue
            m = self._m.get(id(param))
            v = self._v.get(id(param))
            if m is None:
                m = self._m[id(param)] = np.zeros_like(param.data)
                v = self._v[id(param)] = np.zeros_like(param.data)
            # In-place moment updates: ``x *= beta; x += (1-beta)*g``
            # rounds identically to ``beta*x + (1-beta)*g`` (same two
            # elementwise ops on the same operands) while reusing the
            # moment buffers instead of allocating fresh ones per step.
            m *= self.beta1
            m += (1 - self.beta1) * param.grad
            v *= self.beta2
            v += (1 - self.beta2) * param.grad**2
            m_hat = m / (1 - self.beta1**self._t)
            v_hat = v / (1 - self.beta2**self._t)
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        """The step count and moments, aligned to the parameter list order.

        Moments are stored per parameter *index* (not ``id()``), so the
        state survives process boundaries as long as the restored
        optimizer holds the same parameters in the same order — the
        contract the checkpoint subsystem (:mod:`repro.runtime`) uses
        for crash-identical resume.
        """
        return {
            "t": self._t,
            "m": [None if m is None else m.copy() for m in self._aligned(self._m)],
            "v": [None if v is None else v.copy() for v in self._aligned(self._v)],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        m_slots, v_slots = state["m"], state["v"]
        self._check_slots(m_slots, "m")
        self._check_slots(v_slots, "v")
        self._t = int(state["t"])
        self._m = {
            id(p): np.array(m, dtype=p.data.dtype)
            for p, m in zip(self.params, m_slots)
            if m is not None
        }
        self._v = {
            id(p): np.array(v, dtype=p.data.dtype)
            for p, v in zip(self.params, v_slots)
            if v is not None
        }
