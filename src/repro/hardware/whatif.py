"""Hardware what-if analysis: late binding of models to future chips.

The paper's conclusion (Section 9) pitches H2O-NAS as an architect's
tool: hardware is committed years before the models that will run on
it, so architects want to know *which resources a workload actually
leans on* and re-search models once silicon lands.  This module
answers the first question analytically: scale one hardware resource
at a time and report the step-time elasticity of a model — near 1 for
the bottleneck resource, near 0 for slack ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..graph.ir import OpGraph
from .config import HardwareConfig
from .simulator import PerformanceSimulator

#: Scalable resources and the HardwareConfig field backing each.
RESOURCE_FIELDS: Dict[str, str] = {
    "matrix_unit": "peak_matrix_tflops",
    "vector_unit": "peak_vector_tflops",
    "hbm_bandwidth": "hbm_bandwidth_gbs",
    "cmem_bandwidth": "cmem_bandwidth_gbs",
    "interconnect": "ici_bandwidth_gbs",
}


@dataclass(frozen=True)
class ResourceSensitivity:
    """Step-time response of one model to one resource."""

    resource: str
    scale: float  # resource multiplier applied
    baseline_time_s: float
    scaled_time_s: float

    @property
    def speedup(self) -> float:
        return self.baseline_time_s / self.scaled_time_s

    @property
    def elasticity(self) -> float:
        """Fractional speedup per fractional resource increase.

        1.0 means the model rides this resource (its bottleneck);
        0.0 means the resource is slack.
        """
        if self.scale == 1.0:
            return 0.0
        return (self.speedup - 1.0) / (self.scale - 1.0)


def _scaled_time(graph: OpGraph, hw: HardwareConfig, resource: str, scale: float) -> float:
    """Step time of ``graph`` on ``hw`` with one ``resource`` scaled."""
    try:
        field = RESOURCE_FIELDS[resource]
    except KeyError:
        raise ValueError(
            f"unknown resource {resource!r}; expected {sorted(RESOURCE_FIELDS)}"
        ) from None
    if scale <= 0:
        raise ValueError("scale must be positive")
    scaled_hw = hw.with_overrides(**{field: getattr(hw, field) * scale})
    return PerformanceSimulator(scaled_hw).simulate(graph).total_time_s


def sensitivity_profile(
    graph: OpGraph,
    hw: HardwareConfig,
    resources: Sequence[str] = tuple(RESOURCE_FIELDS),
    scale: float = 2.0,
) -> Dict[str, ResourceSensitivity]:
    """Elasticity of every resource for one model (its bottleneck map)."""
    # the unscaled run is the same for every resource: taken once
    baseline = PerformanceSimulator(hw).simulate(graph).total_time_s
    return {
        resource: ResourceSensitivity(
            resource=resource,
            scale=scale,
            baseline_time_s=baseline,
            scaled_time_s=_scaled_time(graph, hw, resource, scale),
        )
        for resource in resources
    }


def bottleneck(graph: OpGraph, hw: HardwareConfig, scale: float = 2.0) -> str:
    """The resource whose scaling helps the model most."""
    profile = sensitivity_profile(graph, hw, scale=scale)
    return max(profile.values(), key=lambda s: s.elasticity).resource
