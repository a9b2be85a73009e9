"""The simulator as an array program: bit-identity, heads, guard, timing.

``PerformanceSimulator.simulate_many`` evaluates the roofline of a whole
batch of graphs as numpy expressions over stacked columns.  The oracle
below is the per-op walk it replaced — ``time_op`` / ``_memory_split`` /
``mxu_efficiency`` / the ``+=`` totals / ``critical_path`` — frozen in
this file (never imported from ``src/``), and every field the program
reports must ``==`` it.
"""

import ast
import copy
import math
import pathlib
import pickle
import statistics
import time
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.graph import OpGraph, OpNode, passes
from repro.graph.ir import UNIT_MEMORY, UNIT_MXU, UNIT_NETWORK, UNIT_VPU
from repro.hardware import (
    PerformanceSimulator,
    mxu_efficiency,
    peak_compute_rate,
    platform,
    roofline,
    simulate,
    simulator,
    tile_efficiency,
)
from repro.models import (
    COATNET,
    EFFICIENTNET_X,
    CnnBaseline,
    CnnTimingHarness,
    DlrmTimingHarness,
    VitBaseline,
    VitTimingHarness,
    baseline_production_dlrm,
    build_cnn_graph,
    build_vit_graph,
    coatnet,
    dlrm,
    efficientnet,
)
from repro.models.timing import HEADS, TimingHarness
from repro.searchspace import (
    CnnSpaceConfig,
    DlrmSpaceConfig,
    VitSpaceConfig,
    cnn_search_space,
    dlrm_search_space,
    hybrid_vit_search_space,
    vit_search_space,
)

PLATFORMS = ("tpu_v4", "tpu_v4i", "gpu_v100")
TOTALS = (
    "total_time_s", "serial_time_s", "total_flops", "hbm_bytes", "cmem_bytes",
    "network_bytes", "param_bytes", "mxu_busy_s", "vpu_busy_s",
)  # fmt: skip


# ----------------------------------------------------------------------
# The frozen per-op oracle (the simulator as it stood before the program)
# ----------------------------------------------------------------------
def oracle_tile_efficiency(dim, tile):
    if dim <= 0:
        raise ValueError("dimension must be positive")
    return dim / (math.ceil(dim / tile) * tile)


def oracle_peak_rate(op, hw):
    if op.unit != UNIT_MXU:
        return hw.peak_vector_flops
    tiles = (hw.batch_tile,) + (hw.mxu_tile,) * (len(op.dims) - 1)
    eff = 1.0
    for dim, tile in zip(op.dims, tiles):
        eff *= oracle_tile_efficiency(dim, tile)
    return hw.peak_matrix_flops * eff


def oracle_time_op(op, hw):
    compute = 0.0
    if op.flops > 0:
        rate = oracle_peak_rate(op, hw)
        compute = op.flops / rate if rate > 0 else float("inf")
    budget = hw.cmem_capacity_bytes * 0.5
    hbm, cmem = op.param_bytes, 0.0
    if op.op_type == "embedding_lookup":
        hbm += op.bytes_in + op.bytes_out
    elif op.attrs.get("cmem_resident"):
        cmem += op.bytes_in + op.bytes_out
    else:
        for chunk in (op.bytes_in, op.bytes_out):
            if chunk <= budget:
                cmem += chunk
            else:
                hbm += chunk
    memory = hbm / hw.hbm_bandwidth + cmem / hw.cmem_bandwidth
    network = op.network_bytes / hw.ici_bandwidth if op.network_bytes else 0.0
    body = max(compute, memory, network)
    if body <= hw.op_overhead_s:
        bound = "overhead"
    elif body == compute:
        bound = "compute"
    elif body == memory:
        bound = "memory"
    else:
        bound = "network"
    return {
        "name": op.name, "op_type": op.op_type, "time_s": body + hw.op_overhead_s,
        "compute_time_s": compute, "memory_time_s": memory, "network_time_s": network,
        "flops": op.flops, "hbm_bytes": hbm, "cmem_bytes": cmem, "bound": bound,
    }  # fmt: skip


def oracle_critical_path(graph, weights):
    best_cost, best_pred = {}, {}
    for op in graph.nodes():
        preds = graph.predecessors(op.name)
        pred = max(preds, key=best_cost.__getitem__) if preds else None
        best_cost[op.name] = (best_cost[pred] if preds else 0.0) + weights[op.name]
        best_pred[op.name] = pred
    if not best_cost:
        return []
    path = [max(best_cost, key=best_cost.__getitem__)]
    while best_pred[path[-1]] is not None:
        path.append(best_pred[path[-1]])
    return list(reversed(path))


def oracle_simulate(graph, hw):
    out = dict.fromkeys(TOTALS, 0.0)
    out.update(graph_name=graph.name, hardware=hw.name, op_timings=[])
    for op in graph.nodes():
        timing = oracle_time_op(op, hw)
        out["op_timings"].append(timing)
        out["serial_time_s"] += timing["time_s"]
        out["total_flops"] += timing["flops"]
        out["hbm_bytes"] += timing["hbm_bytes"]
        out["cmem_bytes"] += timing["cmem_bytes"]
        out["network_bytes"] += op.network_bytes
        out["param_bytes"] += op.param_bytes
        if op.unit == UNIT_MXU:
            out["mxu_busy_s"] += timing["compute_time_s"]
        elif op.unit not in (UNIT_MEMORY, UNIT_NETWORK):
            out["vpu_busy_s"] += timing["compute_time_s"]
    weights = {t["name"]: t["time_s"] for t in out["op_timings"]}
    out["critical_path"] = oracle_critical_path(graph, weights)
    for name in out["critical_path"]:
        out["total_time_s"] += weights[name]
    out["bound_fractions"] = []
    for bound in ("compute", "memory", "network", "overhead"):
        limited = 0
        for timing in out["op_timings"]:
            if timing["bound"] == bound:
                limited += timing["time_s"]
        out["bound_fractions"].append(
            limited / out["serial_time_s"] if out["serial_time_s"] > 0 else 0.0
        )
    return out


def observed(result):
    """Every field of a ``SimulationResult``, in the oracle's shape."""
    out = {name: getattr(result, name) for name in TOTALS}
    out.update(
        graph_name=result.graph_name,
        hardware=result.hardware,
        critical_path=result.critical_path,
        op_timings=[
            {f.name: getattr(timing, f.name) for f in fields(timing)}
            for timing in result.op_timings.values()
        ],
        bound_fractions=[
            result.bound_fraction(bound)
            for bound in ("compute", "memory", "network", "overhead")
        ],
    )
    assert list(result.op_timings) == [t["name"] for t in out["op_timings"]]
    return out


def assert_matches_oracle(graph):
    for name in PLATFORMS:
        hw = platform(name)
        assert observed(simulate(graph, hw)) == oracle_simulate(graph, hw), (graph.name, name)


# ----------------------------------------------------------------------
# Graph sources
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def lowered_graphs():
    """>= 300 seeded architectures across the DLRM, ViT, CNN and CoAtNet
    lowerings (DLRM as its training and its serving graph)."""
    rng = np.random.default_rng(22)
    graphs = []
    space = dlrm_search_space(DlrmSpaceConfig(num_tables=4))
    baseline = baseline_production_dlrm(4)
    for _ in range(100):
        spec = dlrm.apply_architecture(baseline, space.sample(rng))
        graphs.append(dlrm.build_graph(spec))
        graphs.append(
            dlrm.build_graph(replace(spec, name="serving", batch=128, distributed=False))
        )
    space = vit_search_space(VitSpaceConfig(num_tfm_blocks=2))
    graphs += [build_vit_graph(VitBaseline(), space.sample(rng), batch=8) for _ in range(80)]
    space = cnn_search_space(CnnSpaceConfig())
    graphs += [build_cnn_graph(CnnBaseline(), space.sample(rng), batch=8) for _ in range(80)]
    space = hybrid_vit_search_space()  # the CoAtNet shape: conv blocks, then transformers
    graphs += [build_vit_graph(VitBaseline(), space.sample(rng), batch=4) for _ in range(40)]
    graphs += [coatnet.build_graph(COATNET[idx], batch=8) for idx in ("0", "2", "5")]
    graphs += [efficientnet.build_graph(EFFICIENTNET_X[idx], batch=8) for idx in ("b0", "b7")]
    return graphs


def random_dag(rng, index):
    """A small DAG built to collide: a handful of distinct footprints
    (so branch costs tie), every unit, gathers, resident and network ops,
    matmul views of 0-4 axes, repeated and multiple dependencies."""
    footprints = [
        dict(
            flops=float(rng.choice([0.0, 3.0e6, 2.0e9, 7.5e10])),
            bytes_in=float(rng.choice([0.0, 4096.0, 3.0e6, 9.0e7])),
            bytes_out=float(rng.choice([0.0, 4096.0, 3.0e6, 9.0e7])),
            param_bytes=float(rng.choice([0.0, 1.0e3, 5.0e6])),
            network_bytes=float(rng.choice([0.0, 0.0, 2.0e6])),
            unit=str(rng.choice([UNIT_MXU, UNIT_MXU, UNIT_VPU, UNIT_MEMORY, UNIT_NETWORK])),
            op_type=str(rng.choice(["dense", "embedding_lookup", "elementwise", "matmul"])),
            dims=tuple(int(d) for d in rng.integers(1, 700, size=rng.integers(0, 5))),
            attrs={"cmem_resident": 1.0} if rng.random() < 0.3 else {},
        )
        for _ in range(4)
    ]
    graph = OpGraph(f"dag{index}")
    names = []
    for i in range(int(rng.integers(1, 30))):
        footprint = footprints[int(rng.integers(len(footprints)))]
        fan_in = int(rng.integers(0, min(len(names), 3) + 1))
        deps = [names[int(j)] for j in rng.integers(0, len(names), size=fan_in)] if names else []
        graph.add(OpNode(name=f"n{i}", **copy.deepcopy(footprint)), deps=deps)
        names.append(f"n{i}")
    return graph


# ----------------------------------------------------------------------
# (i) Every field equals the per-op oracle
# ----------------------------------------------------------------------
class TestMatchesPerOpOracle:
    def test_every_lowering_on_every_platform(self, lowered_graphs):
        assert len(lowered_graphs) >= 300
        for graph in lowered_graphs:
            assert_matches_oracle(graph)

    def test_compiler_optimized_graphs(self, lowered_graphs):
        for graph in lowered_graphs[::3]:
            assert_matches_oracle(passes.optimize(graph))
            hw = platform("tpu_v4")
            through_passes = PerformanceSimulator(hw, run_compiler_passes=True).simulate(graph)
            assert observed(through_passes) == oracle_simulate(passes.optimize(graph), hw)

    def test_random_dags_with_ties(self):
        rng = np.random.default_rng(7)
        for index in range(60):
            assert_matches_oracle(random_dag(rng, index))

    def test_time_op_and_scalar_helpers_are_the_same_expressions(self):
        rng = np.random.default_rng(3)
        for index in range(20):
            for op in random_dag(rng, index).nodes():
                for name in PLATFORMS:
                    hw = platform(name)
                    timing = PerformanceSimulator(hw).time_op(op)
                    assert {
                        f.name: getattr(timing, f.name) for f in fields(timing)
                    } == oracle_time_op(op, hw)
                    assert peak_compute_rate(op, hw) == oracle_peak_rate(op, hw)
                    assert type(peak_compute_rate(op, hw)) is float
        assert tile_efficiency(100, 128) == oracle_tile_efficiency(100, 128)
        assert mxu_efficiency((), platform("tpu_v4")) == 1.0

    def test_result_values_are_plain_python(self):
        result = simulate(dlrm.build_graph(baseline_production_dlrm(2)), platform("tpu_v4"))
        assert all(type(getattr(result, name)) is float for name in TOTALS)
        timing = next(iter(result.op_timings.values()))
        assert type(timing.time_s) is float and type(timing.hbm_bytes) is float


# ----------------------------------------------------------------------
# (ii) A graph's result does not depend on what shares its program
# ----------------------------------------------------------------------
def serving_graphs(count, seed=0):
    space = dlrm_search_space(DlrmSpaceConfig(num_tables=2))
    harness = DlrmTimingHarness(baseline_production_dlrm(2))
    rng = np.random.default_rng(seed)
    return [
        dlrm.build_graph(
            replace(harness.spec_of(space.sample(rng)), batch=128, distributed=False)
        )
        for _ in range(count)
    ]


class TestBatchCompositionIndependence:
    def test_shuffled_mixed_batches(self):
        one_op = OpGraph("one")
        one_op.add(OpNode("only", "dense", flops=1e9, bytes_in=1e6, unit=UNIT_MXU, dims=(8, 64)))
        graphs = [
            one_op,
            OpGraph("empty"),
            *serving_graphs(3),  # ~35 ops each
            efficientnet.build_graph(EFFICIENTNET_X["b7"], batch=8),  # 470 ops
            coatnet.build_graph(COATNET["0"], batch=8),
        ]
        assert {len(g) for g in graphs} >= {0, 1, 470}
        rng = np.random.default_rng(11)
        for name in PLATFORMS:
            sim = PerformanceSimulator(platform(name))
            alone = [observed(sim.simulate(graph)) for graph in graphs]
            for _ in range(4):
                order = rng.permutation(len(graphs))
                together = sim.simulate_many([graphs[i] for i in order])
                assert [observed(r) for r in together] == [alone[i] for i in order]
        assert observed(simulate(OpGraph("empty"), platform("tpu_v4")))["op_timings"] == []
        assert PerformanceSimulator(platform("tpu_v4")).simulate_many([]) == []

    @pytest.mark.parametrize(
        "harness, space",
        [
            (DlrmTimingHarness(baseline_production_dlrm(2)), dlrm_search_space(DlrmSpaceConfig(num_tables=2))),
            (VitTimingHarness(), vit_search_space(VitSpaceConfig(num_tfm_blocks=2))),
            (CnnTimingHarness(), cnn_search_space(CnnSpaceConfig())),
        ],
        ids=["dlrm", "vit", "cnn"],
    )  # fmt: skip
    def test_price_batch_equals_one_by_one(self, harness, space):
        rng = np.random.default_rng(5)
        archs = [space.sample(rng) for _ in range(6)]
        for metrics in (HEADS, ("serving_latency", "model_size"), ("train_step_time",)):
            fn = harness.pricing(metrics)
            assert fn.price_batch(archs) == [fn(arch) for arch in archs]
            assert fn.price_batch(archs) == [
                {m: harness.metrics_from_simulator(arch)[m] for m in metrics} for arch in archs
            ]
        assert harness.pricing(()).price_batch(archs) == [{}] * len(archs)


# ----------------------------------------------------------------------
# (iii) The same exceptions at the same calls
# ----------------------------------------------------------------------
class TestEdgesRaiseAsBefore:
    def test_dimension_must_be_positive_only_for_a_computing_matrix_op(self):
        hw = platform("tpu_v4")

        def graph_of(**footprint):
            graph = OpGraph("g")
            graph.add(OpNode("ok", "dense", flops=1e6, unit=UNIT_MXU, dims=(8, 128)))
            graph.add(OpNode("bad", "dense", dims=(8, 0, 128), **footprint), deps=["ok"])
            return graph

        with pytest.raises(ValueError, match="dimension must be positive"):
            simulate(graph_of(flops=1.0, unit=UNIT_MXU), hw)
        with pytest.raises(ValueError, match="dimension must be positive"):
            PerformanceSimulator(hw).time_op(graph_of(flops=1.0, unit=UNIT_MXU).node("bad"))
        # no FLOPs, or not on the matrix unit: its dims are never read
        for footprint in (dict(flops=0.0, unit=UNIT_MXU), dict(flops=1.0, unit=UNIT_VPU)):
            graph = graph_of(**footprint)
            assert observed(simulate(graph, hw)) == oracle_simulate(graph, hw)
        with pytest.raises(ValueError, match="dimension must be positive"):
            tile_efficiency(0, 128)
        with pytest.raises(ValueError, match="dimension must be positive"):
            mxu_efficiency((8, -1), hw)
        assert peak_compute_rate(OpNode("v", "x", unit=UNIT_VPU, dims=(0,)), hw) > 0

    @pytest.mark.parametrize("field", ["peak_vector_tflops", "peak_matrix_tflops"])
    def test_zero_peak_rate_is_an_infinite_time_not_a_warning(self, field):
        hw = copy.copy(platform("tpu_v4"))
        object.__setattr__(hw, field, 0.0)  # past __post_init__'s validation
        graph = OpGraph("g")
        graph.add(OpNode("vector", "elementwise", flops=1e6, bytes_in=8.0, unit=UNIT_VPU))
        graph.add(OpNode("matrix", "dense", flops=1e6, unit=UNIT_MXU, dims=(8, 8)), deps=["vector"])
        graph.add(OpNode("idle", "concat", bytes_in=8.0, unit=UNIT_MXU), deps=["matrix"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = simulate(graph, hw)
        assert result.total_time_s == float("inf")
        seen, expected = observed(result), oracle_simulate(graph, hw)
        for side in (seen, expected):  # inf / inf: nan on both sides, and nan != nan
            assert math.isnan(side.pop("bound_fractions")[0])
        assert seen == expected


# ----------------------------------------------------------------------
# (iv) Heads: a harness prices what it is asked for
# ----------------------------------------------------------------------
def counting(builder, calls):
    def build(spec):
        calls.append(spec)
        return builder(spec)

    return build


class TestHeads:
    def make(self):
        baseline = baseline_production_dlrm(2)
        reference = DlrmTimingHarness(baseline)
        built = {"train": [], "serve": []}
        harness = TimingHarness(
            counting(reference._timed["train_step_time"][0], built["train"]),
            counting(reference._timed["serving_latency"][0], built["serve"]),
            dlrm.num_params,
            4.0,
        )
        harness.spec_of = reference.spec_of
        space = dlrm_search_space(DlrmSpaceConfig(num_tables=2))
        return harness, reference, space, built

    def test_serving_and_size_never_build_the_training_graph(self):
        harness, reference, space, built = self.make()
        archs = [space.sample(np.random.default_rng(seed)) for seed in range(4)]
        fn = harness.pricing(["serving_latency", "model_size"])
        priced = fn.price_batch(archs) + [fn(archs[0])]
        assert built["train"] == [] and len(built["serve"]) == 5
        assert all(list(metrics) == ["serving_latency", "model_size"] for metrics in priced)
        full = [reference.metrics_from_simulator(arch) for arch in archs]
        assert priced[:4] == [
            {name: metrics[name] for name in ("serving_latency", "model_size")}
            for metrics in full
        ]
        assert harness.model_size(archs[0]) == full[0]["model_size"]
        assert built["train"] == [] and len(built["serve"]) == 5
        assert harness.simulate(archs[0]) == reference.simulate(archs[0])
        assert len(built["train"]) == 1 and len(built["serve"]) == 6

    def test_unknown_metric_is_refused_when_the_callable_is_built(self):
        harness = DlrmTimingHarness(baseline_production_dlrm(2))
        with pytest.raises(ValueError, match="step_time"):
            harness.pricing(["serving_latency", "step_time"])

    def test_pricing_callable_pickles_and_is_batchable(self):
        from repro.core import BatchPerformanceFn

        space = dlrm_search_space(DlrmSpaceConfig(num_tables=2))
        fn = DlrmTimingHarness(baseline_production_dlrm(2)).pricing(["serving_latency"])
        assert isinstance(fn, BatchPerformanceFn)
        clone = pickle.loads(pickle.dumps(fn))
        arch = space.default_architecture()
        assert clone(arch) == fn(arch) and list(clone(arch)) == ["serving_latency"]

    def test_a_specialization_prices_exactly_what_its_objectives_read(self):
        from repro.service.jobs import _quickstart_space, platform_performance_fn

        space = _quickstart_space()
        harness, fn, objectives = platform_performance_fn(space, "tpu_v4i")
        arch = space.default_architecture()
        assert sorted(fn(arch)) == sorted(o.metric for o in objectives)
        assert fn(arch) == {
            name: harness.metrics_from_simulator(arch)[name] for name in fn(arch)
        }


# ----------------------------------------------------------------------
# (v) No pairwise reduction can creep into the program
# ----------------------------------------------------------------------
def test_simulator_and_roofline_never_sum_pairwise():
    """Every total is a left-to-right ``+=`` or ``accumulate``: ``np.sum``,
    ``.sum()``, ``reduceat`` add pairwise, ``math.fsum`` and (from 3.12)
    the builtin ``sum`` compensate, and any of them would move a golden."""
    for module in (simulator, roofline):
        tree = ast.parse(pathlib.Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("sum", "reduceat", "fsum", "nansum"), ast.unparse(node)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("sum", "fsum"), ast.unparse(node)
            if isinstance(node, ast.ImportFrom):
                assert not {"sum", "fsum"} & {alias.name for alias in node.names}


# ----------------------------------------------------------------------
# (vi) One program over a shard is cheaper than the shard one by one
# ----------------------------------------------------------------------
def test_one_program_over_64_graphs_beats_64_programs():
    graphs = serving_graphs(64)
    sim = PerformanceSimulator(platform("tpu_v4i"))

    def median_seconds(fn):
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    sim.simulate_many(graphs)  # warm
    together = median_seconds(lambda: sim.simulate_many(graphs))
    one_by_one = median_seconds(lambda: [sim.simulate(graph) for graph in graphs])
    assert together <= 0.6 * one_by_one, (together, one_by_one)
