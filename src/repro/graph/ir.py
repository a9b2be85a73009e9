"""Operator-graph intermediate representation.

The paper's in-house performance simulator consumes a TensorFlow/HLO
graph of the target model.  Our equivalent is :class:`OpGraph` — a DAG
of ops, each carrying the quantities a roofline simulator needs: FLOPs,
activation bytes in/out, parameter bytes, and which hardware unit
executes the op (matrix unit, vector unit, memory system, or
chip-to-chip network).  The graph stores them as columns, one row per
op; :class:`OpNode` is the one-op view of a row, for reporting.

Model builders in :mod:`repro.models` lower architecture configurations
to these graphs; :mod:`repro.hardware.simulator` prices their columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Execution units an op can be bound to.
UNIT_MXU = "mxu"  # matrix/tensor unit (systolic array / tensor cores)
UNIT_VPU = "vpu"  # vector processing unit
UNIT_MEMORY = "memory"  # pure data movement (e.g. embedding gather)
UNIT_NETWORK = "network"  # inter-chip communication (all-to-all etc.)

#: The ``units`` column holds an op's unit as its index here.
UNITS = (UNIT_MXU, UNIT_VPU, UNIT_MEMORY, UNIT_NETWORK)
VALID_UNITS = frozenset(UNITS)
_UNIT_CODE = {unit: code for code, unit in enumerate(UNITS)}
#: The float columns of a graph, in :class:`OpNode` field order.
FOOTPRINT = ("flops", "bytes_in", "bytes_out", "param_bytes", "network_bytes")
_INF = float("inf")


def _unit_code(name, unit, dims, flops, bytes_in, bytes_out, params, network) -> int:
    """The index of ``unit`` in :data:`UNITS`, or ``ValueError`` for an op the
    simulator cannot price: an unknown unit, a negative or non-finite
    footprint, or a matrix op that computes over a dimension that is not
    positive."""
    code = _UNIT_CODE.get(unit)
    if code is None:
        raise ValueError(f"unknown unit {unit!r} for op {name!r}")
    # one chained test per op on the hot path; a NaN fails both comparisons
    if not (0.0 <= flops < _INF and 0.0 <= bytes_in < _INF and 0.0 <= bytes_out < _INF
            and 0.0 <= params < _INF and 0.0 <= network < _INF):  # fmt: skip
        footprint = (flops, bytes_in, bytes_out, params, network)
        for label, value in zip(FOOTPRINT, footprint):
            if not 0.0 <= value < _INF:
                raise ValueError(f"{label} of op {name!r} must be non-negative and finite")
    if unit == UNIT_MXU and flops > 0 and dims and min(dims) <= 0:
        raise ValueError(f"op {name!r}: dimension must be positive, got dims {tuple(dims)}")
    return code


@dataclass
class OpNode:
    """One operator with its resource footprint: a row of an :class:`OpGraph`.

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
        _unit_code(
            self.name, self.unit, self.dims, self.flops, self.bytes_in,
            self.bytes_out, self.param_bytes, self.network_bytes,
        )  # fmt: skip

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
    """A DAG of ops stored as columns, one row per op, rows in the order
    appended.

    The columns are read-only outside :meth:`append`: ``names``,
    ``op_types``, the float :data:`FOOTPRINT` columns (``flops`` ...
    ``network_bytes``), ``units`` (an index into :data:`UNITS`), the
    flags ``gather`` (an embedding gather: tables dwarf CMEM) and
    ``resident`` (``cmem_resident``: fused, never leaves the chip),
    ``dims``, and ``preds`` / ``succs`` (row indices).  ``attrs`` maps
    the few rows that have attributes to them.

    Acyclic by construction: :meth:`append` accepts only a *new* name whose
    dependencies already exist, so no edge can point backwards.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._index: Dict[str, int] = {}
        self.names: List[str] = []
        self.op_types: List[str] = []
        self.flops: List[float] = []
        self.bytes_in: List[float] = []
        self.bytes_out: List[float] = []
        self.param_bytes: List[float] = []
        self.network_bytes: List[float] = []
        self.units: List[int] = []
        self.gather: List[bool] = []
        self.resident: List[bool] = []
        self.dims: List[Tuple[int, ...]] = []
        self.attrs: Dict[int, Dict[str, float]] = {}
        self.preds: List[List[int]] = []
        self.succs: List[List[int]] = []
        self._order: Optional[List[int]] = None  # cached; ``append`` resets it

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def append(
        self, name: str, op_type: str, flops: float = 0.0, bytes_in: float = 0.0,
        bytes_out: float = 0.0, param_bytes: float = 0.0, unit: str = UNIT_VPU,
        dims: Tuple[int, ...] = (), network_bytes: float = 0.0,
        attrs: Optional[Dict[str, float]] = None, deps: Iterable[str] = (),
    ) -> str:  # fmt: skip
        """Append one op (the :class:`OpNode` fields, in order) as a row,
        depending on the named ops; returns ``name``.

        A refused append leaves the graph exactly as it was.
        """
        code = _unit_code(name, unit, dims, flops, bytes_in, bytes_out, param_bytes, network_bytes)
        index = self._index
        if name in index:
            raise ValueError(f"duplicate op name {name!r}")
        try:
            preds = list(map(index.__getitem__, deps))  # the op itself included
        except KeyError as missing:
            raise KeyError(f"dependency {missing.args[0]!r} not in graph") from None
        if len(preds) > 1:
            preds = list(dict.fromkeys(preds))  # repeated entries are one edge
        resident = bool(attrs and attrs.get("cmem_resident"))  # the last call that can raise
        row = index[name] = len(self.names)
        self.names.append(name)
        self.op_types.append(op_type)
        self.flops.append(flops)
        self.bytes_in.append(bytes_in)
        self.bytes_out.append(bytes_out)
        self.param_bytes.append(param_bytes)
        self.network_bytes.append(network_bytes)
        self.units.append(code)
        self.dims.append(dims)
        self.preds.append(preds)
        self.succs.append([])
        for pred in preds:
            self.succs[pred].append(row)
        self.gather.append(op_type == "embedding_lookup")
        self.resident.append(resident)
        if attrs:
            self.attrs[row] = attrs
        self._order = None
        return name

    def add(self, node: OpNode, deps: Iterable[str] = ()) -> OpNode:
        """Append ``node`` as a row (see :meth:`append`); returns it."""
        self.append(
            node.name, node.op_type, node.flops, node.bytes_in, node.bytes_out,
            node.param_bytes, node.unit, node.dims, node.network_bytes, node.attrs, deps,
        )  # fmt: skip
        return node

    def chain(self, nodes: Iterable[OpNode], after: Optional[str] = None) -> Optional[str]:
        """Add ``nodes`` in sequence, each depending on the previous.

        Returns the name of the last node added (or ``after`` when
        ``nodes`` is empty).
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
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def _node(self, row: int) -> OpNode:
        return OpNode(
            self.names[row], self.op_types[row], self.flops[row], self.bytes_in[row],
            self.bytes_out[row], self.param_bytes[row], UNITS[self.units[row]],
            self.dims[row], self.network_bytes[row], dict(self.attrs.get(row, ())),
        )  # fmt: skip

    def node(self, name: str) -> OpNode:
        """A fresh :class:`OpNode` view of the op called ``name``."""
        return self._node(self._index[name])

    def order(self) -> List[int]:
        """All rows in topological order: Kahn's algorithm by generations,
        the roots in insertion order, then each generation in the order
        its ops become ready (DESIGN.md section 2).  Every float sum the
        simulator reports is taken in this order.  Do not mutate.
        """
        if self._order is None:
            waiting = [len(preds) for preds in self.preds]
            order = [row for row, count in enumerate(waiting) if not count]
            for row in order:  # grows as ops become ready
                for succ in self.succs[row]:
                    waiting[succ] -= 1
                    if not waiting[succ]:
                        order.append(succ)
            self._order = order
        return self._order

    def nodes(self) -> List[OpNode]:
        """:class:`OpNode` views of all ops, in :meth:`order`."""
        return [self._node(row) for row in self.order()]

    def successors(self, name: str) -> List[str]:
        """Ops depending on ``name``, in the order added."""
        return [self.names[row] for row in self.succs[self._index[name]]]

    def predecessors(self, name: str) -> List[str]:
        """Dependencies of ``name``, in the order given."""
        return [self.names[row] for row in self.preds[self._index[name]]]

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    @property
    def total_flops(self) -> float:
        return sum(self.flops[row] for row in self.order())

    @property
    def total_param_bytes(self) -> float:
        return sum(self.param_bytes[row] for row in self.order())

    @property
    def total_bytes(self) -> float:
        return sum(self.bytes_in[r] + self.bytes_out[r] + self.param_bytes[r] for r in self.order())

    def longest_path(self, weights: Sequence[float]) -> Tuple[List[int], float]:
        """Rows of the longest path under ``weights`` (one per op, in
        :meth:`order`), and its length.

        Parallel branches (e.g. the embedding pipeline vs. the bottom MLP
        of a DLRM) contribute only their slower arm, matching the paper's
        ``MAX(embedding time, DNN time)`` step-time accounting.  Ties go
        to the first predecessor, and to the tail earliest in
        :meth:`order`.  The length is summed from the root.
        """
        order = self.order()
        if not order:
            return [], 0.0
        cost, best = [0.0] * len(order), [-1] * len(order)
        at = cost.__getitem__
        for row, weight in zip(order, weights):
            preds = self.preds[row]  # most ops sit on a chain: one, no ``max``
            if preds:
                pred = best[row] = max(preds, key=at) if len(preds) > 1 else preds[0]
                cost[row] = cost[pred] + weight
            else:
                cost[row] = 0.0 + weight
        path = [max(order, key=at)]
        while best[path[-1]] >= 0:
            path.append(best[path[-1]])
        path.reverse()
        return path, cost[path[-1]]

    def critical_path(self, weights: Dict[str, float]) -> List[str]:
        """Names along :meth:`longest_path` under per-name ``weights``."""
        path, _ = self.longest_path([weights[self.names[row]] for row in self.order()])
        return [self.names[row] for row in path]
