"""Tape/graph reuse: build an op graph once, replay it with new inputs.

The closure-graph autograd in :mod:`repro.nn.tensor` re-allocates every
node of the network on every forward pass.  For the search hot path
that is pure overhead: the super-network's topology is *fixed per
architecture* — only the input batch changes between steps.  This
module compiles one forward build into a :class:`CompiledGraph` that
can be replayed:

* **inputs bind by copy** — the graph owns one buffer per named input;
  ``run()`` copies the new batch into the buffers, and every leaf
  tensor (and index view) created from them during tracing sees the
  fresh data for free;
* **forward replay** walks the cached topological order calling each
  node's ``recompute`` closure (which also refreshes the saved
  activation state its backward needs);
* **backward replay** (`Tensor.backward` delegates here via the
  ``_tape`` slot) walks the cached reverse order, skipping the
  per-step topological sort.

Replayed results are bit-identical to a freshly built graph: replay
runs the same NumPy expressions on the same operands in the same
order — nothing is approximated, only the Python graph construction is
skipped (DESIGN.md §11).

:class:`TapeCache` is the LRU keyed the way ``ArchMetricsCache`` keys
metrics — by architecture (plus input-shape signature), with plain-int
hit/miss/eviction counters that are safe to read from the engine
thread and cheap to bump from worker threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from .tensor import Tensor, trace_graph

def _walk_retained(root: Tensor) -> List[Tensor]:
    """All reachable nodes with retained parents, parents-first."""
    topo: List[Tensor] = []
    seen: set = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
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
            if id(parent) not in seen:
                stack.append((parent, False))
    return topo


def _grad_topo(root: Tensor) -> List[Tensor]:
    """Reverse-order gradient node list, exactly as ``Tensor.backward``
    computes it (same DFS, same ordering), cached once per graph."""
    topo: List[Tensor] = []
    seen: set = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
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
    return list(reversed(topo))


class CompiledGraph:
    """One traced forward (and its backward) bound to input buffers."""

    __slots__ = ("output", "buffers", "taps", "_nodes", "_grad_order", "_lock")

    def __init__(
        self,
        output: Tensor,
        buffers: Mapping[str, np.ndarray],
        taps: Optional[Mapping[str, Tensor]] = None,
    ):
        self.output = output
        self.buffers = dict(buffers)
        #: named interior nodes a caller reads after a replay (e.g. the
        #: logits under a loss); refreshed by every ``run`` like any node
        self.taps = dict(taps or {})
        walk = _walk_retained(output)
        # Interior nodes in forward order; leaves carry no recompute.
        self._nodes = [n for n in walk if n._recompute is not None]
        self._grad_order = _grad_topo(output) if output.requires_grad else []
        self._lock = threading.RLock()
        output._tape = self

    # -- replay --------------------------------------------------------
    def _bind(self, arrays: Mapping[str, np.ndarray]) -> None:
        for name, buf in self.buffers.items():
            src = np.asarray(arrays[name])
            if src.shape != buf.shape:
                raise ValueError(
                    f"input {name!r}: shape {src.shape} does not match "
                    f"compiled shape {buf.shape}"
                )
            np.copyto(buf, src)

    def _replay(self) -> Tensor:
        for node in self._nodes:
            # Reset interior grads so a later backward — cached-order or
            # generic — starts from a clean slate even after many runs.
            node.grad = None
            node.data = node._recompute()
        return self.output

    def run(self, arrays: Mapping[str, np.ndarray]) -> Tensor:
        """Bind ``arrays`` into the input buffers and replay the graph.

        Returns the live output tensor; callers that extract values
        concurrently should use :meth:`call` instead.
        """
        with self._lock:
            self._bind(arrays)
            return self._replay()

    def call(self, arrays: Mapping[str, np.ndarray], consume: Callable[[Tensor], Any]) -> Any:
        """Replay and apply ``consume`` to the output *under the graph
        lock* — the safe way to extract metrics when the same graph may
        be replayed concurrently (e.g. duplicate candidates fanned out
        across backend workers)."""
        with self._lock:
            self._bind(arrays)
            return consume(self._replay())

    # -- backward fast path (invoked from Tensor.backward) -------------
    def run_backward(self, root: Tensor, grad: np.ndarray) -> None:
        root._accumulate(np.asarray(grad, dtype=np.float64))
        for node in self._grad_order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)


def compile_graph(
    build: Callable[[Dict[str, np.ndarray]], Tensor],
    arrays: Mapping[str, np.ndarray],
    taps: Optional[Dict[str, Tensor]] = None,
) -> CompiledGraph:
    """Trace ``build`` over buffered copies of ``arrays``.

    ``build`` receives a dict of graph-owned arrays (float64 for float
    inputs, int64 for integer ones — the dtypes ``Tensor`` and
    ``gather_rows`` normalize to, so tracing wraps the buffers
    themselves rather than converted copies) and must construct the
    output tensor from them.  A ``taps`` dict that ``build`` fills with
    interior nodes while tracing becomes :attr:`CompiledGraph.taps`.
    """
    buffers: Dict[str, np.ndarray] = {}
    for name, value in arrays.items():
        value = np.asarray(value)
        dtype = np.int64 if np.issubdtype(value.dtype, np.integer) else np.float64
        buffers[name] = np.array(value, dtype=dtype, copy=True)
    with trace_graph():
        output = build(buffers)
    return CompiledGraph(output, buffers, taps)


class TapeCache:
    """LRU of :class:`CompiledGraph` keyed by (arch, kind, shapes),
    admitting a key on its **second** sight.

    Tracing and compiling a graph costs more than one eager pass and a
    replay saves only a fraction of one (DESIGN.md §11), so a graph
    that is never replayed is a net loss — and an exploring search
    samples a new architecture nearly every time.  The first lookup of
    a key therefore returns ``None`` ("run eagerly") and remembers only
    the key, in a bounded recent-keys set; the second lookup compiles;
    later lookups replay.

    Counters are plain ints: incrementing them from backend workers is
    tolerable (they feed telemetry, not control flow) and reading them
    from the engine thread needs no lock.  ``misses`` counts lookups
    that did not replay (first sights and compiles alike); ``compiles``
    counts the graphs actually built.  Graph construction itself is
    serialized so concurrent misses on one key build a single graph.
    """

    #: recent-keys bound as a multiple of ``capacity``: keys are a few
    #: hundred bytes against a graph's megabytes, so remembering several
    #: generations of them is free.
    _SEEN_PER_SLOT = 4

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._graphs: "OrderedDict[Hashable, CompiledGraph]" = OrderedDict()
        self._seen: "OrderedDict[Hashable, None]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.compiles = 0
        self.evictions = 0

    def get_or_build(
        self, key: Hashable, factory: Callable[[], CompiledGraph]
    ) -> Optional[CompiledGraph]:
        """The graph to replay for ``key``, or ``None`` on first sight."""
        with self._lock:
            graph = self._graphs.get(key)
            if graph is not None:
                self._graphs.move_to_end(key)
                self.hits += 1
                return graph
            self.misses += 1
            if key not in self._seen:
                self._seen[key] = None
                if len(self._seen) > self._SEEN_PER_SLOT * self.capacity:
                    self._seen.popitem(last=False)
                return None
            del self._seen[key]
            graph = factory()
            self.compiles += 1
            self._graphs[key] = graph
            while len(self._graphs) > self.capacity:
                self._graphs.popitem(last=False)
                self.evictions += 1
            return graph

    def __len__(self) -> int:
        return len(self._graphs)

    def clear(self) -> None:
        with self._lock:
            self._graphs.clear()
            self._seen.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "compiles": self.compiles,
            "evictions": self.evictions,
            "size": len(self._graphs),
        }


#: What a host's ``tape_stats()`` reports before its cache exists.
EMPTY_TAPE_STATS: Mapping[str, int] = {
    "hits": 0,
    "misses": 0,
    "compiles": 0,
    "evictions": 0,
    "size": 0,
}
