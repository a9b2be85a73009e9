"""DLRM model builder: spec -> operator graph (Figure 3 / Figure 8).

A production DLRM has sharded embedding tables (memory- and
network-bound) and dense MLP stacks (matrix-unit-bound).  Training
pipelines overlap the two across micro-batches, so the paper accounts
a training step as ``MAX(embedding computing time, DNN computing
time)`` (Figure 8).  The builder reproduces that by emitting the
embedding pipeline and the dense pipeline as parallel branches of the
op graph; the simulator's critical path then takes the slower arm.

``apply_architecture`` maps a DLRM search-space architecture (width /
vocabulary deltas per table, depth / width / low-rank per dense stack)
onto a baseline spec, which is how the search explores real
performance trade-offs through the simulator or performance model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence, Tuple

from ..graph.ir import OpGraph
from ..graph import ops
from ..hardware.simulator import SimulationResult
from ..searchspace.base import Architecture

EMBEDDING_DTYPE_BYTES = 4.0
WIDTH_INCREMENT = 8


@dataclass(frozen=True)
class TableSpec:
    """One embedding table."""

    vocab: int
    width: int

    def __post_init__(self) -> None:
        if self.vocab < 1 or self.width < 1:
            raise ValueError("vocab and width must be positive")

    @property
    def param_bytes(self) -> float:
        return self.vocab * self.width * EMBEDDING_DTYPE_BYTES


@dataclass(frozen=True)
class MlpStackSpec:
    """One dense stack: uniform width, given depth, optional low rank."""

    width: int
    depth: int
    low_rank: float = 1.0  # fraction of width; 1.0 = full-rank

    def __post_init__(self) -> None:
        if self.width < 1 or self.depth < 1:
            raise ValueError("width and depth must be positive")
        if not (0 < self.low_rank <= 1.0):
            raise ValueError("low_rank must be in (0, 1]")


@dataclass(frozen=True)
class DlrmModelSpec:
    """A complete DLRM model plus its execution context."""

    name: str
    tables: Tuple[TableSpec, ...]
    bottom: MlpStackSpec
    top: MlpStackSpec
    num_dense_features: int = 256
    lookups_per_table: int = 32  # multi-hot pooling factor
    batch: int = 4096
    distributed: bool = True  # tables sharded across chips (all-to-all)

    @property
    def total_embedding_width(self) -> int:
        return sum(t.width for t in self.tables)


def build_graph(spec: DlrmModelSpec) -> OpGraph:
    """Lower ``spec`` to an op graph with parallel embedding/DNN arms."""
    graph = OpGraph(spec.name)
    ops.concat(graph, "input", spec.batch * spec.num_dense_features)
    # --- Embedding pipeline (memory + network bound) -------------------
    # Tables are chained: their gathers and all-to-alls contend on the
    # same HBM and interconnect, so they serialize within the pipeline.
    last_emb = "input"
    lookups = spec.batch * spec.lookups_per_table
    for i, table in enumerate(spec.tables):
        lookup = ops.embedding_lookup(
            graph, f"emb{i}/lookup", lookups, table.width, spec.distributed, deps=[last_emb]
        )
        last_emb = ops.elementwise(
            graph, f"emb{i}/pool", lookups * table.width, op_type="pooling_sum", deps=[lookup]
        )
    ops.concat(graph, "emb_join", spec.batch * spec.total_embedding_width, deps=[last_emb])
    # --- Dense (DNN) pipeline (matrix-unit bound) -----------------------
    last = _add_mlp(graph, "bottom", spec.bottom, spec.num_dense_features, spec.batch, "input")
    interaction_width = spec.bottom.width + spec.total_embedding_width
    ops.concat(graph, "interact", spec.batch * interaction_width, deps=[last])
    last = _add_mlp(graph, "top", spec.top, interaction_width, spec.batch, "interact")
    ops.dense(graph, "head", spec.batch, spec.top.width, 1, deps=[last])
    # --- Join: step completes when both pipelines have. ----------------
    ops.elementwise(graph, "sink", spec.batch, op_type="sigmoid", deps=["head", "emb_join"])
    return graph


def _add_mlp(
    graph: OpGraph,
    prefix: str,
    stack: MlpStackSpec,
    input_width: int,
    batch: int,
    after: str,
) -> str:
    last = after
    nin = input_width
    for layer in range(stack.depth):
        if stack.low_rank < 1.0:
            rank = max(1, int(round(stack.low_rank * stack.width)))
            down = ops.dense(graph, f"{prefix}{layer}/lowrank_u", batch, nin, rank, deps=[last])
            last = ops.dense(graph, f"{prefix}{layer}/lowrank_v", batch, rank, stack.width, deps=[down])
        else:
            last = ops.dense(graph, f"{prefix}{layer}/dense", batch, nin, stack.width, deps=[last])
        last = ops.elementwise(
            graph, f"{prefix}{layer}/act", batch * stack.width, op_type="activation", deps=[last]
        )
        nin = stack.width
    return last


def num_params(spec: DlrmModelSpec) -> float:
    """Trainable parameter count (embeddings dominate, as in production)."""
    total = sum(t.vocab * t.width for t in spec.tables)
    nin = spec.num_dense_features
    for stack, input_width in (
        (spec.bottom, spec.num_dense_features),
        (spec.top, spec.bottom.width + spec.total_embedding_width),
    ):
        nin = input_width
        for _ in range(stack.depth):
            if stack.low_rank < 1.0:
                rank = max(1, int(round(stack.low_rank * stack.width)))
                total += nin * rank + rank * stack.width
            else:
                total += nin * stack.width
            nin = stack.width
    total += spec.top.width  # head
    return float(total)


def pipeline_times(result: SimulationResult) -> Dict[str, float]:
    """Split a simulated step into embedding vs DNN pipeline times.

    Returns ``{"embedding": t_e, "dnn": t_d, "step": max(t_e, t_d)}`` —
    the paper's Figure 8 accounting.
    """
    emb = sum(
        t.time_s
        for name, t in result.op_timings.items()
        if name.startswith("emb")
    )
    dnn = sum(
        t.time_s
        for name, t in result.op_timings.items()
        if name.startswith(("bottom", "top", "interact", "head"))
    )
    return {"embedding": emb, "dnn": dnn, "step": max(emb, dnn)}


def apply_architecture(
    baseline: DlrmModelSpec, arch: Architecture, name: str = "dlrm_candidate"
) -> DlrmModelSpec:
    """Apply search-space deltas to ``baseline``.

    Expects decisions for every table (``emb{i}/width_delta`` and, when
    searched, ``emb{i}/vocab_scale``) and two dense stacks (``dense0``
    bottom, ``dense1`` top).
    """
    tables: List[TableSpec] = []
    for i, table in enumerate(baseline.tables):
        width = table.width + int(arch[f"emb{i}/width_delta"]) * WIDTH_INCREMENT
        vocab_key = f"emb{i}/vocab_scale"
        vocab = table.vocab
        if vocab_key in arch:
            vocab = max(1, int(round(table.vocab * float(arch[vocab_key]))))
        tables.append(TableSpec(vocab=vocab, width=max(WIDTH_INCREMENT, width)))
    stacks = []
    for key, stack in (("dense0", baseline.bottom), ("dense1", baseline.top)):
        width = stack.width + int(arch[f"{key}/width_delta"]) * WIDTH_INCREMENT
        depth = max(1, stack.depth + int(arch[f"{key}/depth_delta"]))
        stacks.append(
            MlpStackSpec(
                width=max(WIDTH_INCREMENT, width),
                depth=depth,
                low_rank=float(arch[f"{key}/low_rank"]),
            )
        )
    return replace(
        baseline, name=name, tables=tuple(tables), bottom=stacks[0], top=stacks[1]
    )


def baseline_production_dlrm(num_tables: int = 32) -> DlrmModelSpec:
    """A production-scale baseline DLRM (Table 2's DLRM column).

    ~1B embedding parameters and an MLP-dominated step time, leaving
    slack in the embedding pipeline — the load imbalance Figure 8 shows
    the search removing.
    """
    tables = tuple(TableSpec(vocab=1_000_000, width=32) for _ in range(num_tables))
    return DlrmModelSpec(
        name="dlrm_baseline",
        tables=tables,
        bottom=MlpStackSpec(width=2048, depth=3),
        top=MlpStackSpec(width=4096, depth=8),
        num_dense_features=256,
        lookups_per_table=32,
        batch=4096,
    )


def dlrm_h(baseline: DlrmModelSpec) -> DlrmModelSpec:
    """The searched DLRM-H: rebalance embedding vs MLP pipelines.

    The search grows embedding capacity into the idle embedding-pipeline
    slack (better memorization, +0.02% quality) while trimming the
    MLP-bound stack, cutting the MAX(embedding, DNN) step time ~10%.
    """
    tables = tuple(
        TableSpec(vocab=int(t.vocab * 1.25), width=t.width + 16)
        for t in baseline.tables
    )
    return replace(
        baseline,
        name="dlrm_h",
        tables=tables,
        top=replace(baseline.top, depth=baseline.top.depth - 1),
    )
