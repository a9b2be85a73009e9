"""Operator-graph intermediate representation.

The paper's in-house performance simulator consumes a TensorFlow/HLO
graph of the target model.  Our equivalent is :class:`OpGraph` — a DAG
of :class:`OpNode` objects, each carrying the quantities a roofline
simulator needs: FLOPs, activation bytes in/out, parameter bytes, and
which hardware unit executes the op (matrix unit, vector unit, memory
system, or chip-to-chip network).

Model builders in :mod:`repro.models` lower architecture configurations
to these graphs; :mod:`repro.hardware.simulator` walks them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Execution units an op can be bound to.
UNIT_MXU = "mxu"  # matrix/tensor unit (systolic array / tensor cores)
UNIT_VPU = "vpu"  # vector processing unit
UNIT_MEMORY = "memory"  # pure data movement (e.g. embedding gather)
UNIT_NETWORK = "network"  # inter-chip communication (all-to-all etc.)

VALID_UNITS = frozenset({UNIT_MXU, UNIT_VPU, UNIT_MEMORY, UNIT_NETWORK})


@dataclass
class OpNode:
    """One operator with its resource footprint.

    Attributes:
        name: unique node id within its graph.
        op_type: semantic kind (``conv2d``, ``matmul``, ...), used for
            reporting and for unit-specific simulator behaviour.
        flops: total floating-point operations (multiply-add counted
            as two FLOPs, matching the paper's convention).
        bytes_in: activation bytes read.
        bytes_out: activation bytes written.
        param_bytes: parameter bytes streamed from off-chip memory.
        unit: execution unit (one of :data:`VALID_UNITS`).
        dims: characteristic tensor dimensions used for matrix-unit
            padding-efficiency modelling (e.g. ``(m, k, n)``).
        network_bytes: bytes crossing the chip interconnect.
    """

    name: str
    op_type: str
    flops: float = 0.0
    bytes_in: float = 0.0
    bytes_out: float = 0.0
    param_bytes: float = 0.0
    unit: str = UNIT_VPU
    dims: Tuple[int, ...] = ()
    network_bytes: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.unit not in VALID_UNITS:
            raise ValueError(f"unknown unit {self.unit!r} for op {self.name!r}")
        if (self.flops < 0 or self.bytes_in < 0 or self.bytes_out < 0
                or self.param_bytes < 0 or self.network_bytes < 0):  # fmt: skip
            for label in ("flops", "bytes_in", "bytes_out", "param_bytes", "network_bytes"):
                if getattr(self, label) < 0:
                    raise ValueError(f"{label} of op {self.name!r} must be non-negative")

    @property
    def total_bytes(self) -> float:
        """All bytes moved by this op (activations + parameters)."""
        return self.bytes_in + self.bytes_out + self.param_bytes

    @property
    def operational_intensity(self) -> float:
        """FLOPs per byte moved — the roofline x-axis."""
        total = self.total_bytes
        return self.flops / total if total > 0 else 0.0


class OpGraph:
    """A DAG of :class:`OpNode` with explicit dependency edges.

    Acyclic by construction: :meth:`add` accepts only a *new* name whose
    dependencies already exist, so no edge can point backwards.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._ops: Dict[str, OpNode] = {}
        self._preds: Dict[str, List[str]] = {}
        self._succs: Dict[str, List[str]] = {}
        self._order: Optional[List[OpNode]] = None  # cached; ``add`` resets it

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, node: OpNode, deps: Iterable[str] = ()) -> OpNode:
        """Add ``node``, depending on the named predecessor ops.

        A refused add leaves the graph exactly as it was.
        """
        if node.name in self._ops:
            raise ValueError(f"duplicate op name {node.name!r}")
        preds = list(deps)
        if len(preds) > 1:
            preds = list(dict.fromkeys(preds))  # repeated entries are one edge
        for dep in preds:
            if dep not in self._ops:  # the node itself included
                raise KeyError(f"dependency {dep!r} not in graph")
        self._ops[node.name] = node
        self._preds[node.name] = preds
        self._succs[node.name] = []
        for dep in preds:
            self._succs[dep].append(node.name)
        self._order = None
        return node

    def chain(self, nodes: Iterable[OpNode], after: Optional[str] = None) -> Optional[str]:
        """Add ``nodes`` in sequence, each depending on the previous.

        Returns the name of the last node added (or ``after`` when
        ``nodes`` is empty), convenient for threading builders.
        """
        last = after
        for node in nodes:
            self.add(node, deps=[last] if last is not None else [])
            last = node.name
        return last

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def node(self, name: str) -> OpNode:
        return self._ops[name]

    def nodes(self) -> List[OpNode]:
        """All ops in topological order: Kahn's algorithm by generations,
        the roots in insertion order, then each generation in the order
        its ops become ready (DESIGN.md section 2).  Every float sum the
        simulator reports is taken in this order.
        """
        if self._order is None:
            waiting = {name: len(preds) for name, preds in self._preds.items()}
            order = [name for name, count in waiting.items() if count == 0]
            for name in order:  # grows as ops become ready
                for succ in self._succs[name]:
                    waiting[succ] -= 1
                    if waiting[succ] == 0:
                        order.append(succ)
            self._order = [self._ops[name] for name in order]
        return list(self._order)

    def successors(self, name: str) -> Sequence[str]:
        """Ops depending on ``name``, in the order added (read-only)."""
        return self._succs[name]

    def predecessors(self, name: str) -> Sequence[str]:
        """Dependencies of ``name``, in the order given (read-only)."""
        return self._preds[name]

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    @property
    def total_flops(self) -> float:
        return sum(op.flops for op in self.nodes())

    @property
    def total_param_bytes(self) -> float:
        return sum(op.param_bytes for op in self.nodes())

    @property
    def total_bytes(self) -> float:
        return sum(op.total_bytes for op in self.nodes())

    def critical_path(self, weights: Dict[str, float]) -> List[str]:
        """Longest path through the DAG under per-node ``weights``.

        ``weights`` maps op name -> execution time.  Parallel branches
        (e.g. the embedding pipeline vs. the bottom MLP of a DLRM)
        contribute only their slower arm, matching the paper's
        ``MAX(embedding time, DNN time)`` step-time accounting.  Ties
        go to the first predecessor, and to the earliest tail.
        """
        best_cost: Dict[str, float] = {}
        best_pred: Dict[str, Optional[str]] = {}
        cost = best_cost.__getitem__
        for op in self.nodes():
            preds = self._preds[op.name]  # most ops sit on a chain: one, no ``max``
            pred = max(preds, key=cost) if len(preds) > 1 else (preds or [None])[0]
            best_cost[op.name] = (best_cost[pred] if preds else 0.0) + weights[op.name]
            best_pred[op.name] = pred
        if not best_cost:
            return []
        path = [max(best_cost, key=best_cost.__getitem__)]
        while best_pred[path[-1]] is not None:
            path.append(best_pred[path[-1]])
        return list(reversed(path))
