"""Tests for the operator-graph IR and op constructors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import OpGraph, OpNode, UNIT_MEMORY, UNIT_MXU, UNIT_VPU, ops


def chain(graph, names):
    """Append one op per name, each depending on the one before."""
    for index, name in enumerate(names):
        graph.add(OpNode(name, "x"), deps=names[index - 1 : index])


def longest_path(graph, weights):
    """Names along :meth:`OpGraph.longest_path` under per-name ``weights``."""
    rows, _ = graph.longest_path([weights[graph.names[row]] for row in graph.order()])
    return [graph.names[row] for row in rows]


class TestOpNode:
    def test_total_bytes_and_intensity(self):
        op = OpNode("x", "dense", flops=100.0, bytes_in=10, bytes_out=10, param_bytes=5)
        assert op.total_bytes == 25
        assert op.operational_intensity == pytest.approx(4.0)

    def test_zero_bytes_intensity(self):
        op = OpNode("x", "noop")
        assert op.operational_intensity == 0.0

    def test_invalid_unit(self):
        with pytest.raises(ValueError):
            OpNode("x", "dense", unit="quantum")

    def test_negative_flops(self):
        with pytest.raises(ValueError):
            OpNode("x", "dense", flops=-1.0)


class TestOpGraph:
    def test_chain_and_topology(self):
        g = OpGraph("m")
        chain(g, ["op0", "op1", "op2"])
        assert [op.name for op in g.nodes()] == ["op0", "op1", "op2"]

    def test_duplicate_name_rejected(self):
        g = OpGraph()
        g.add(OpNode("a", "dense"))
        with pytest.raises(ValueError):
            g.add(OpNode("a", "dense"))

    def test_missing_dependency_rejected(self):
        g = OpGraph()
        with pytest.raises(KeyError):
            g.add(OpNode("b", "dense"), deps=["nope"])

    def test_aggregates(self):
        g = OpGraph()
        g.add(OpNode("a", "dense", flops=5.0, param_bytes=2.0, bytes_in=1.0))
        g.add(OpNode("b", "dense", flops=7.0, param_bytes=3.0), deps=["a"])
        assert g.total_flops == 12.0
        assert g.total_bytes == 6.0

    def test_longest_path_takes_slower_branch(self):
        """Parallel branches: the critical path is MAX of the arms."""
        g = OpGraph()
        g.add(OpNode("src", "concat"))
        g.add(OpNode("fast", "dense"), deps=["src"])
        g.add(OpNode("slow", "dense"), deps=["src"])
        g.add(OpNode("join", "concat"), deps=["fast", "slow"])
        weights = {"src": 1.0, "fast": 2.0, "slow": 10.0, "join": 1.0}
        assert longest_path(g, weights) == ["src", "slow", "join"]

    def test_longest_path_empty_graph(self):
        assert OpGraph().longest_path([]) == ([], 0.0)

    def test_len(self):
        g = OpGraph()
        g.add(OpNode("a", "dense"))
        assert len(g) == 1

    def test_successors_predecessors(self):
        g = OpGraph()
        chain(g, ["a", "b"])
        assert g.successors("a") == ["b"]
        assert g.predecessors("b") == ["a"]


def random_dag(seed, max_nodes=40):
    """A seeded random DAG: random fan-in <= 4 with repeated ``deps``
    entries, added in an order unrelated to depth.  Returns the graph and
    the (name, deduplicated deps) list in insertion order."""
    rng = np.random.default_rng(seed)
    graph, added = OpGraph(f"dag{seed}"), []
    for i in range(int(rng.integers(1, max_nodes + 1))):
        fan_in = int(rng.integers(0, min(4, len(added)) + 1))
        deps = [added[j][0] for j in rng.integers(0, len(added), size=fan_in)] if added else []
        if deps and rng.random() < 0.3:
            deps.append(deps[0])  # a repeated entry is one edge
        graph.add(OpNode(f"n{i}", "dense", flops=1.0), deps=deps)
        added.append((f"n{i}", list(dict.fromkeys(deps))))
    return graph, added


def reference_kahn(added):
    """Kahn by generations, written out: roots in insertion order, then
    each generation in the order its ops become ready while the previous
    one is walked, successors in the order they were added."""
    waiting = {name: len(deps) for name, deps in added}
    generation = [name for name, deps in added if not deps]
    order = []
    while generation:
        order += generation
        ready = []
        for done in generation:
            for name, deps in added:
                if done in deps:
                    waiting[name] -= 1
                    if waiting[name] == 0:
                        ready.append(name)
        generation = ready
    return order


class TestOpGraphOrder:
    """The invariant DESIGN.md section 2 states: acyclic by construction,
    and ``nodes()`` is generations x insertion order (the order every
    float sum in ``SimulationResult`` is taken in)."""

    @pytest.mark.parametrize("seed", range(60))
    def test_nodes_is_the_reference_topological_order(self, seed):
        graph, added = random_dag(seed)
        order = [op.name for op in graph.nodes()]
        position = {name: i for i, name in enumerate(order)}
        assert sorted(order) == sorted(name for name, _ in added)
        for name, deps in added:
            assert graph.predecessors(name) == deps
            assert all(position[dep] < position[name] for dep in deps)
        assert order == reference_kahn(added)

    def test_order_is_not_plain_insertion_order(self):
        """A generation is ordered by readiness: ``d`` is released by
        ``a`` before ``c`` is released by ``b``."""
        g = OpGraph()
        g.add(OpNode("a", "x"))
        g.add(OpNode("b", "x"))
        g.add(OpNode("c", "x"), deps=["b"])
        g.add(OpNode("d", "x"), deps=["a"])
        assert [op.name for op in g.nodes()] == ["a", "b", "d", "c"]

    def test_add_after_nodes_refreshes_the_order(self):
        g = OpGraph()
        chain(g, ["a", "b"])
        assert [op.name for op in g.nodes()] == ["a", "b"]
        g.add(OpNode("c", "x"))
        assert [op.name for op in g.nodes()] == ["a", "c", "b"]

    def test_nodes_returns_a_fresh_list(self):
        g = OpGraph()
        chain(g, ["a", "b"])
        g.nodes().clear()
        assert len(g.nodes()) == 2

    @pytest.mark.parametrize("seed", range(40))
    def test_longest_path_is_the_brute_force_longest_path(self, seed):
        graph, added = random_dag(seed, max_nodes=10)
        rng = np.random.default_rng(1000 + seed)
        weights = {name: float(rng.integers(1, 6)) for name, _ in added}
        deps_of = dict(added)

        def longest_ending_at(name):
            return weights[name] + max(
                (longest_ending_at(dep) for dep in deps_of[name]), default=0.0
            )

        path = longest_path(graph, weights)
        assert sum(weights[name] for name in path) == max(
            longest_ending_at(name) for name in deps_of
        )
        assert not deps_of[path[0]]
        for earlier, later in zip(path, path[1:]):
            assert earlier in deps_of[later]

    def test_longest_path_ties_take_the_first_predecessor(self):
        g = OpGraph()
        g.add(OpNode("src", "concat"))
        g.add(OpNode("left", "dense"), deps=["src"])
        g.add(OpNode("right", "dense"), deps=["src"])
        g.add(OpNode("join", "concat"), deps=["right", "left"])
        weights = {"src": 1.0, "left": 2.0, "right": 2.0, "join": 1.0}
        assert longest_path(g, weights) == ["src", "right", "join"]

    def test_longest_path_ties_take_the_earliest_tail(self):
        g = OpGraph()
        g.add(OpNode("a", "dense"))
        g.add(OpNode("b", "dense"))
        assert longest_path(g, {"a": 3.0, "b": 3.0}) == ["a"]


def built(helper, name, *args, **kwargs):
    """The op a ``repro.graph.ops`` helper appends to a fresh graph."""
    graph = OpGraph()
    assert helper(graph, name, *args, **kwargs) == name
    return graph.node(name)


class TestOpConstructors:
    def test_conv2d_flops(self):
        op = built(ops.conv2d, "c", height=32, width=32, cin=16, cout=32, kernel=3, stride=1)
        assert op.flops == 2 * 32 * 32 * 16 * 32 * 9
        assert op.unit == UNIT_MXU
        assert op.param_bytes == 9 * 16 * 32 * 2

    def test_conv2d_stride_shrinks_output(self):
        s1 = built(ops.conv2d, "a", 32, 32, 16, 16, 3, stride=1)
        s2 = built(ops.conv2d, "b", 32, 32, 16, 16, 3, stride=2)
        assert s2.flops == pytest.approx(s1.flops / 4)
        assert s2.bytes_out == pytest.approx(s1.bytes_out / 4)

    def test_depthwise_runs_on_vpu(self):
        op = built(ops.depthwise_conv2d, "d", 32, 32, 64, 3)
        assert op.unit == UNIT_VPU
        assert op.flops == 2 * 32 * 32 * 64 * 9

    def test_depthwise_far_fewer_flops_than_dense_conv(self):
        dw = built(ops.depthwise_conv2d, "d", 32, 32, 64, 3)
        full = built(ops.conv2d, "c", 32, 32, 64, 64, 3)
        assert full.flops == dw.flops * 64

    def test_dense_op(self):
        op = built(ops.dense, "fc", batch=8, nin=128, nout=256)
        assert op.flops == 2 * 8 * 128 * 256
        assert op.dims == (8, 128, 256)

    def test_matmul_no_params(self):
        op = built(ops.matmul, "qk", m=64, k=32, n=64, batch=4)
        assert op.param_bytes == 0
        assert op.flops == 2 * 4 * 64 * 32 * 64

    def test_embedding_lookup_memory_and_network_bound(self):
        op = built(ops.embedding_lookup, "emb", lookups=1024, width=64)
        assert op.unit == UNIT_MEMORY
        assert op.flops == 0
        assert op.network_bytes == 1024 * 64 * 4

    def test_embedding_lookup_local(self):
        op = built(ops.embedding_lookup, "emb", lookups=10, width=8, distributed=False)
        assert op.network_bytes == 0

    def test_elementwise_and_softmax(self):
        act = built(ops.elementwise, "relu", elements=1000)
        assert act.flops == 1000
        sm = built(ops.softmax, "sm", rows=10, row_length=100)
        assert sm.flops == 5000

    def test_pooling_and_concat(self):
        pool = built(ops.pooling, "p", 32, 32, 8, window=2)
        assert pool.bytes_out == 16 * 16 * 8 * 2
        cat = built(ops.concat, "c", total_elements=100)
        assert cat.flops == 0 and cat.unit == UNIT_MEMORY

    @given(st.integers(1, 64), st.integers(1, 64), st.integers(1, 7))
    @settings(max_examples=30, deadline=None)
    def test_conv_flops_nonnegative_and_monotone_in_cout(self, cin, cout, k):
        a = built(ops.conv2d, "a", 16, 16, cin, cout, k)
        b = built(ops.conv2d, "b", 16, 16, cin, cout + 1, k)
        assert 0 <= a.flops < b.flops
