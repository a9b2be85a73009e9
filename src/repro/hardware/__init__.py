"""Hardware substrate: configs, roofline, simulator, power, testbed."""

from .cluster import ClusterModel, ClusterStep, allreduce_time
from .config import (
    GPU_V100,
    HardwareConfig,
    PLATFORM_ALIASES,
    PLATFORM_NAMES,
    PLATFORMS,
    TPU_V4,
    TPU_V4I,
    platform,
)
from .power import PowerReport, power_report, utilizations
from .roofline import (
    RooflinePoint,
    mxu_efficiency,
    peak_compute_rate,
    roofline_point,
    tile_efficiency,
)
from .serving import (
    ServingPoint,
    ServingReport,
    measure_serving_point,
    optimize_serving_throughput,
)
from .simulator import OpTiming, PerformanceSimulator, SimulationResult, simulate
from .testbed import HardwareTestbed, TestbedCalibration
from .whatif import (
    ResourceSensitivity,
    bottleneck,
    sensitivity_profile,
)

__all__ = [
    "ClusterModel",
    "ClusterStep",
    "GPU_V100",
    "allreduce_time",
    "HardwareConfig",
    "HardwareTestbed",
    "OpTiming",
    "PLATFORM_ALIASES",
    "PLATFORM_NAMES",
    "PLATFORMS",
    "PerformanceSimulator",
    "PowerReport",
    "ResourceSensitivity",
    "RooflinePoint",
    "ServingPoint",
    "ServingReport",
    "SimulationResult",
    "TPU_V4",
    "TPU_V4I",
    "TestbedCalibration",
    "measure_serving_point",
    "mxu_efficiency",
    "optimize_serving_throughput",
    "peak_compute_rate",
    "platform",
    "power_report",
    "roofline_point",
    "bottleneck",
    "sensitivity_profile",
    "simulate",
    "tile_efficiency",
    "utilizations",
]
