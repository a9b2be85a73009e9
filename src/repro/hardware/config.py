"""Hardware configurations for the accelerators the paper targets.

The numbers follow the public sources the paper cites — the TPUv4
system-architecture documentation, the TPUv4i ISCA'21 paper, and the
NVIDIA V100 whitepaper — rounded where only ranges are public.  The
simulator consumes these as the roofline and power parameters; the NAS
itself only ever sees the resulting performance numbers, so moderate
inaccuracies shift absolute latencies without changing which
architectural trade-offs win (the property the reproduction preserves).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict


@dataclass(frozen=True)
class HardwareConfig:
    """Roofline + power description of one accelerator chip."""

    name: str
    #: Peak matrix-unit throughput in TFLOP/s (bf16 / fp16 tensor math).
    peak_matrix_tflops: float
    #: Peak vector-unit throughput in TFLOP/s.
    peak_vector_tflops: float
    #: Off-chip (HBM) bandwidth in GB/s.
    hbm_bandwidth_gbs: float
    #: HBM capacity in GB.
    hbm_capacity_gb: float
    #: On-chip scratchpad (CMEM / L2) bandwidth in GB/s.
    cmem_bandwidth_gbs: float
    #: On-chip scratchpad capacity in MB.
    cmem_capacity_mb: float
    #: Per-chip interconnect (ICI / NVLink) bandwidth in GB/s.
    ici_bandwidth_gbs: float
    #: Matrix-unit native tile edge (128 for TPU MXUs).
    mxu_tile: int = 128
    #: Granularity of the streaming (batch) dimension.
    batch_tile: int = 8
    #: Fixed dispatch overhead per op, seconds.
    op_overhead_s: float = 1.0e-6
    #: Chip idle power in watts.
    idle_power_w: float = 60.0
    #: Chip maximum power in watts.
    max_power_w: float = 200.0

    def __post_init__(self) -> None:
        positive = (
            "peak_matrix_tflops",
            "peak_vector_tflops",
            "hbm_bandwidth_gbs",
            "hbm_capacity_gb",
            "cmem_bandwidth_gbs",
            "cmem_capacity_mb",
            "ici_bandwidth_gbs",
        )
        for label in positive:
            if getattr(self, label) <= 0:
                raise ValueError(f"{label} must be positive")
        if self.max_power_w <= self.idle_power_w:
            raise ValueError("max power must exceed idle power")

    # Derived quantities -------------------------------------------------
    @property
    def peak_matrix_flops(self) -> float:
        return self.peak_matrix_tflops * 1e12

    @property
    def peak_vector_flops(self) -> float:
        return self.peak_vector_tflops * 1e12

    @property
    def hbm_bandwidth(self) -> float:
        return self.hbm_bandwidth_gbs * 1e9

    @property
    def cmem_bandwidth(self) -> float:
        return self.cmem_bandwidth_gbs * 1e9

    @property
    def ici_bandwidth(self) -> float:
        return self.ici_bandwidth_gbs * 1e9

    @property
    def cmem_capacity_bytes(self) -> float:
        return self.cmem_capacity_mb * 1e6

    def with_overrides(self, **kwargs) -> "HardwareConfig":
        """A copy with selected fields replaced (for what-if studies)."""
        return replace(self, **kwargs)

    def fits_memory(self, resident_bytes: float) -> bool:
        """Whether a model's resident state fits this chip's HBM.

        Memory capacity is one of the paper's launch constraints; a
        model whose parameters exceed HBM cannot be served on a single
        chip regardless of its speed.
        """
        return resident_bytes <= self.hbm_capacity_gb * 1e9


#: TPUv4 training chip: 275 TFLOP/s bf16, 1.2 TB/s HBM, 128 MB CMEM.
TPU_V4 = HardwareConfig(
    name="tpu_v4",
    peak_matrix_tflops=275.0,
    peak_vector_tflops=8.6,
    hbm_bandwidth_gbs=1228.0,
    hbm_capacity_gb=32.0,
    cmem_bandwidth_gbs=6140.0,
    cmem_capacity_mb=128.0,
    ici_bandwidth_gbs=268.0,
    idle_power_w=90.0,
    max_power_w=275.0,
)

#: TPUv4i inference chip (ISCA'21): 138 TFLOP/s bf16, 614 GB/s HBM, 144 MB CMEM.
TPU_V4I = HardwareConfig(
    name="tpu_v4i",
    peak_matrix_tflops=138.0,
    peak_vector_tflops=4.3,
    hbm_bandwidth_gbs=614.0,
    hbm_capacity_gb=8.0,
    cmem_bandwidth_gbs=3070.0,
    cmem_capacity_mb=144.0,
    ici_bandwidth_gbs=100.0,
    idle_power_w=55.0,
    max_power_w=175.0,
)

#: NVIDIA V100: 125 TFLOP/s fp16 tensor cores, 900 GB/s HBM2, 6 MB L2.
GPU_V100 = HardwareConfig(
    name="gpu_v100",
    peak_matrix_tflops=125.0,
    peak_vector_tflops=15.7,
    hbm_bandwidth_gbs=900.0,
    hbm_capacity_gb=16.0,
    cmem_bandwidth_gbs=2500.0,
    cmem_capacity_mb=6.0,
    ici_bandwidth_gbs=150.0,
    mxu_tile=16,
    idle_power_w=70.0,
    max_power_w=300.0,
)

PLATFORMS: Dict[str, HardwareConfig] = {
    cfg.name: cfg for cfg in (TPU_V4, TPU_V4I, GPU_V100)
}

#: Registry-derived canonical names (what error messages enumerate).
PLATFORM_NAMES = tuple(PLATFORMS)

#: Common shorthands accepted by :func:`platform`, normalized lowercase.
PLATFORM_ALIASES: Dict[str, str] = {
    "tpuv4": "tpu_v4",
    "v4": "tpu_v4",
    "tpuv4i": "tpu_v4i",
    "v4i": "tpu_v4i",
    "v100": "gpu_v100",
    "gpuv100": "gpu_v100",
    "volta": "gpu_v100",
}


def platform(name) -> HardwareConfig:
    """Look up a built-in platform by name.

    Accepts canonical registry names, case-insensitive spellings, the
    aliases in :data:`PLATFORM_ALIASES`, or a :class:`HardwareConfig`
    passed through unchanged (so call sites can take either).  Unknown
    names enumerate the registered platforms, mirroring the
    ``resolve_backend`` error contract.
    """
    if isinstance(name, HardwareConfig):
        return name
    key = str(name).strip().lower()
    key = PLATFORM_ALIASES.get(key, key)
    try:
        return PLATFORMS[key]
    except KeyError:
        raise ValueError(
            f"unknown platform {name!r}; expected one of {PLATFORM_NAMES} "
            f"(aliases: {sorted(PLATFORM_ALIASES)})"
        ) from None
