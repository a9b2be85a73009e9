"""Compiler-style optimization passes over operator graphs.

The paper's performance simulator "simulates compiler optimizations
such as op/layer fusion" when fed an unoptimized TensorFlow graph
(Section 6.2.3).  These passes replicate the two XLA behaviours that
matter for roofline timing:

* **elementwise fusion** — a pointwise op (activation, add, mul,
  batch-norm apply, ...) with a single producer and a single consumer
  of the same tensor never materializes its operand: its input read
  and the producer's output write cancel, and its output write merges
  into the producer.  This removes the dominant memory traffic of
  activation functions.
* **dead-op elimination** — ops with zero cost (no FLOPs, no bytes)
  that can appear after other rewrites are dropped, splicing their
  edges.

Passes return a *new* graph; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Set

from .ir import OpGraph, OpNode, UNIT_VPU

#: Pointwise op types eligible for producer fusion.
FUSABLE_OP_TYPES = frozenset(
    {"elementwise", "activation", "add", "mul", "sigmoid", "pooling_sum"}
)


def _rebuild(graph: OpGraph, drop: Set[str], rewrite: Dict[str, OpNode]) -> OpGraph:
    """Copy ``graph`` without ``drop`` nodes, applying node ``rewrite``s.

    Edges through dropped nodes are spliced (predecessors connect to
    successors).
    """
    out = OpGraph(graph.name)
    #: dropped node -> the surviving ancestors that stand in for it
    resolved: Dict[str, List[str]] = {}
    for op in graph.nodes():
        deps: List[str] = []
        for pred in graph.predecessors(op.name):
            if pred in drop:
                deps.extend(resolved[pred])
            else:
                deps.append(pred)
        deps = list(dict.fromkeys(deps))  # spliced diamonds repeat an ancestor
        if op.name in drop:
            resolved[op.name] = deps
        else:
            out.add(rewrite.get(op.name, op), deps=deps)
    return out


def fuse_elementwise(graph: OpGraph) -> OpGraph:
    """Fuse single-consumer pointwise ops into their producers.

    The fused producer absorbs the pointwise FLOPs (they run on the
    vector unit concurrently with the producer's epilogue) and keeps
    only the final output write: the intermediate tensor's write+read
    round-trip disappears.
    """
    drop: Set[str] = set()
    rewrite: Dict[str, OpNode] = {}
    for op in graph.nodes():
        if op.op_type not in FUSABLE_OP_TYPES:
            continue
        preds = graph.predecessors(op.name)
        if len(preds) != 1:
            continue
        producer_name = preds[0]
        if producer_name in drop:
            continue  # one fusion per producer per pass
        if len(graph.successors(producer_name)) != 1:
            continue  # producer output is reused elsewhere: must materialize
        producer = rewrite.get(producer_name, graph.node(producer_name))
        if producer.op_type in ("embedding_lookup",):
            continue  # gathers keep their own memory model
        fused = replace(
            producer,
            flops=producer.flops + op.flops,
            bytes_out=op.bytes_out,
            attrs={**producer.attrs, "fused_ops": producer.attrs.get("fused_ops", 0) + 1},
        )
        rewrite[producer_name] = fused
        drop.add(op.name)
    if not drop:
        return graph
    return _rebuild(graph, drop, rewrite)


def eliminate_dead_ops(graph: OpGraph) -> OpGraph:
    """Drop zero-cost ops (no FLOPs, no bytes, no network traffic)."""
    drop = {
        op.name
        for op in graph.nodes()
        if op.flops == 0
        and op.total_bytes == 0
        and op.network_bytes == 0
        and (graph.predecessors(op.name) or graph.successors(op.name))
    }
    # Never drop every node.
    if len(drop) == len(graph):
        drop.pop()
    if not drop:
        return graph
    return _rebuild(graph, drop, {})


def optimize(graph: OpGraph, max_iterations: int = 4) -> OpGraph:
    """Run all passes to a fixed point (bounded by ``max_iterations``)."""
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    current = graph
    for _ in range(max_iterations):
        fused = eliminate_dead_ops(fuse_elementwise(current))
        if len(fused) == len(current):
            return fused
        current = fused
    return current
