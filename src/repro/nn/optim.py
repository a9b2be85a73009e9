"""Adam over flat moment and gradient arenas (DESIGN.md §11).

The arenas follow :func:`weight_layout`, the layout of the shared weight
segments too.  A step runs Adam's elementwise ops once per run of
adjacent parameters that have a gradient, bit-identical to a step per
parameter.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .tensor import Tensor

#: ``(shape, offset, size)`` per parameter, offsets in elements.
WeightLayout = List[Tuple[Tuple[int, ...], int, int]]

#: Adam's moment decays and epsilon: Kingma & Ba's defaults.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def weight_dtype(arrays: Sequence[np.ndarray]) -> np.dtype:
    """The one float dtype of ``arrays`` (float32 when there are none);
    ``TypeError`` for mixed or non-float ones, which no flat image holds."""
    dtypes = {array.dtype for array in arrays}
    if len(dtypes) > 1 or any(dtype.kind != "f" for dtype in dtypes):
        raise TypeError(
            f"a flat weight layout needs one float dtype, got {', '.join(sorted(map(str, dtypes)))}"
        )
    return dtypes.pop() if dtypes else np.dtype(np.float32)


def weight_layout(arrays: Sequence[np.ndarray]) -> WeightLayout:
    """``(shape, offset, size)`` per array, offsets in elements of their
    one float dtype (:func:`weight_dtype`, checked here).

    The one layout convention of every flat image of a parameter list:
    Adam's arenas, the shared weight segment's payload and the array a
    TCP weight push carries.
    """
    weight_dtype(arrays)
    layout: WeightLayout = []
    offset = 0
    for array in arrays:
        layout.append((tuple(array.shape), offset, int(array.size)))
        offset += int(array.size)
    return layout


class Adam:
    """Adam optimizer (Kingma & Ba) with bias correction.

    The arenas are allocated at the first :meth:`step` (or a
    :meth:`load_state_dict` that carries moments), so an optimizer that
    never steps costs nothing.  ``param.data`` is updated in place and
    never rebound: it may be a view of a shared segment.
    """

    def __init__(self, params: List[Tensor], lr: float = 1e-3):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr
        self._dtype = weight_dtype([p.data for p in self.params])
        self._layout = weight_layout([p.data for p in self.params])
        self._t = 0
        #: whether a parameter has moments (a ``state_dict`` slot)
        self._stepped = [False] * len(self.params)
        #: flat ``m``, ``v``, gradients and two scratch vectors, once allocated
        self._arenas: Optional[Tuple[np.ndarray, ...]] = None
        self._slots: List[np.ndarray] = []  # gradient slot per parameter
        self._updates: List[np.ndarray] = []  # its slice of the update

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def _allocate(self) -> Tuple[np.ndarray, ...]:
        if self._arenas is None:
            total = sum(size for _, _, size in self._layout)
            self._arenas = tuple(np.zeros(total, dtype=self._dtype) for _ in range(5))
            grads, update = self._arenas[2], self._arenas[3]
            self._slots = [grads[o : o + n].reshape(s) for s, o, n in self._layout]
            self._updates = [update[o : o + n].reshape(s) for s, o, n in self._layout]
            for param, slot in zip(self.params, self._slots):
                param._buf = slot
        return self._arenas

    def step(self) -> None:
        self._t += 1
        m, v, g, a, b = self._allocate()
        runs: List[List[int]] = []
        touched: List[int] = []
        for i, (param, (_, offset, size)) in enumerate(zip(self.params, self._layout)):
            grad = param.grad
            if grad is None:
                continue
            slot = self._slots[i]
            if grad is not slot:  # a gradient the backward did not write into the arena
                np.copyto(slot, grad)
                param._buf = slot
            self._stepped[i] = True
            touched.append(i)
            if runs and runs[-1][1] == offset:
                runs[-1][1] = offset + size
            else:
                runs.append([offset, offset + size])
        # The per-parameter update ``m = β1 m + (1-β1) g; v = β2 v +
        # (1-β2) g²; p -= lr m̂ / (√v̂ + ε)``, op for op, on each run.
        for start, stop in runs:
            run_m, run_v, run_g = m[start:stop], v[start:stop], g[start:stop]
            run_a, run_b = a[start:stop], b[start:stop]
            np.multiply(run_m, BETA1, out=run_m)
            np.multiply(1 - BETA1, run_g, out=run_a)
            np.add(run_m, run_a, out=run_m)
            np.multiply(run_v, BETA2, out=run_v)
            np.square(run_g, out=run_a)
            np.multiply(1 - BETA2, run_a, out=run_a)
            np.add(run_v, run_a, out=run_v)
            np.divide(run_m, 1 - BETA1**self._t, out=run_a)
            np.divide(run_v, 1 - BETA2**self._t, out=run_b)
            np.sqrt(run_b, out=run_b)
            np.add(run_b, EPS, out=run_b)
            np.multiply(self.lr, run_a, out=run_a)
            np.divide(run_a, run_b, out=run_a)
        for i in touched:
            self.params[i].data -= self._updates[i]

    def state_dict(self) -> dict:
        """The step count and moments, aligned to the parameter list order.

        Moments are stored per parameter *index* (``None`` for one never
        stepped), so the state survives process boundaries as long as
        the restored optimizer holds the same parameters in the same
        order — the contract the checkpoint subsystem
        (:mod:`repro.runtime`) uses for crash-identical resume.
        """
        m, v = self._arenas[:2] if self._arenas is not None else (None, None)
        slots = {"m": [], "v": []}
        for (shape, offset, size), stepped in zip(self._layout, self._stepped):
            for name, arena in (("m", m), ("v", v)):
                moment = arena[offset : offset + size].reshape(shape).copy() if stepped else None
                slots[name].append(moment)
        return {"t": self._t, **slots}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        m_slots, v_slots = state["m"], state["v"]
        self._check_slots(m_slots, "m")
        self._check_slots(v_slots, "v")
        self._t = int(state["t"])
        self._stepped = [m is not None for m in m_slots]
        if self._arenas is None and not any(self._stepped):
            return
        arenas = self._allocate()
        for (_, offset, size), *moments in zip(self._layout, m_slots, v_slots):
            for arena, moment in zip(arenas, moments):
                arena[offset : offset + size] = 0.0 if moment is None else np.ravel(moment)

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
