"""Golden simulator outputs, compared with ``==``.

``golden/simulation_results.json`` was recorded at the last commit whose
``OpGraph`` sat on networkx (Python 3.11, where ``sum()`` is a plain
left-to-right addition).  Every float in a ``SimulationResult`` is a sum
taken in ``OpGraph.nodes()`` order, so these values pin that order as
well as the roofline arithmetic; a deliberate change to either
regenerates the file with ``current()`` below.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.graph import passes
from repro.hardware import platform, simulate
from repro.models import (
    COATNET,
    EFFICIENTNET_X,
    VitBaseline,
    baseline_production_dlrm,
    build_vit_graph,
    coatnet,
    dlrm,
    efficientnet,
)
from repro.searchspace import VitSpaceConfig, vit_search_space

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "simulation_results.json").read_text()
)
PLATFORMS = ("tpu_v4", "tpu_v4i", "gpu_v100")


def golden_graphs():
    spec = baseline_production_dlrm(2)
    serving = replace(spec, name=spec.name + "_serving", batch=128, distributed=False)
    vit_arch = vit_search_space(VitSpaceConfig(num_tfm_blocks=2)).default_architecture()
    return {
        "dlrm_train": dlrm.build_graph(spec),
        "dlrm_serving": dlrm.build_graph(serving),
        "efficientnet_b0": efficientnet.build_graph(EFFICIENTNET_X["b0"], batch=8),
        "coatnet_0": coatnet.build_graph(COATNET["0"], batch=8),
        "vit": build_vit_graph(VitBaseline(), vit_arch, batch=8),
    }


def current():
    out = {}
    for graph_name, graph in golden_graphs().items():
        for name in PLATFORMS:
            result = simulate(graph, platform(name))
            out[f"{graph_name}@{name}"] = {
                "total_time_s": result.total_time_s,
                "serial_time_s": result.serial_time_s,
                "total_flops": result.total_flops,
                "hbm_bytes": result.hbm_bytes,
                "cmem_bytes": result.cmem_bytes,
                "critical_path": result.critical_path,
                "op_timings": list(result.op_timings),
            }
    # the fusion ablation's DLRM graph, through every compiler pass
    optimized = passes.optimize(dlrm.build_graph(baseline_production_dlrm(num_tables=8)))
    out["optimize(dlrm8)"] = {
        "nodes": [op.name for op in optimized.nodes()],
        "preds": {op.name: list(optimized.predecessors(op.name)) for op in optimized.nodes()},
        "total_bytes": optimized.total_bytes,
        "total_flops": optimized.total_flops,
    }
    return out


@pytest.fixture(scope="module")
def recomputed():
    return current()


def test_every_golden_case_is_recomputed(recomputed):
    assert sorted(recomputed) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_matches_golden(recomputed, case):
    for field, expected in GOLDEN[case].items():
        assert recomputed[case][field] == expected, field
