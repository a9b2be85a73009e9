"""Accelerator power and energy model (Section 7.2 / Figure 9).

The model splits chip power into an idle floor plus dynamic components
proportional to the utilization of each subsystem:

``P = idle + u_mxu*B_mxu + u_vpu*B_vpu + u_hbm*B_hbm + u_cmem*B_cmem + u_net*B_net``

where ``u_x`` is the fraction-of-peak utilization of subsystem ``x``
over the run and ``B_x`` its share of the dynamic power budget
(``max_power - idle``).  HBM's budget share is much larger than CMEM's
(off-chip DRAM I/O costs far more energy per byte than on-chip SRAM),
which is what reproduces the paper's counter-intuitive Figure 9 result:
CoAtNet-H5 raises total memory bandwidth by moving traffic *into* CMEM
while cutting HBM traffic and MXU occupancy, so the faster model draws
*less* power.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import HardwareConfig
from .simulator import SimulationResult

#: Dynamic-power budget split across subsystems (fractions sum to 1).
MXU_BUDGET = 0.52
VPU_BUDGET = 0.08
HBM_BUDGET = 0.28
CMEM_BUDGET = 0.06
NETWORK_BUDGET = 0.06


@dataclass(frozen=True)
class PowerReport:
    """Power/energy outcome of one simulated run."""

    hardware: str
    time_s: float
    power_w: float
    energy_j: float
    mxu_utilization: float
    hbm_utilization: float
    cmem_utilization: float


def utilizations(result: SimulationResult, hw: HardwareConfig) -> dict:
    """Fraction-of-peak utilization of each subsystem over the run."""
    t = result.total_time_s
    if t <= 0:
        return {"mxu": 0.0, "vpu": 0.0, "hbm": 0.0, "cmem": 0.0, "network": 0.0}
    return {
        "mxu": min(1.0, result.achieved_flops / hw.peak_matrix_flops),
        "vpu": min(1.0, result.vpu_busy_s / t),
        "hbm": min(1.0, result.hbm_bandwidth_used / hw.hbm_bandwidth),
        "cmem": min(1.0, result.cmem_bandwidth_used / hw.cmem_bandwidth),
        "network": min(1.0, (result.network_bytes / t) / hw.ici_bandwidth),
    }


def power_report(result: SimulationResult, hw: HardwareConfig) -> PowerReport:
    """Average power and total energy for one simulated execution."""
    util = utilizations(result, hw)
    dynamic_budget = hw.max_power_w - hw.idle_power_w
    dynamic = dynamic_budget * (
        util["mxu"] * MXU_BUDGET
        + util["vpu"] * VPU_BUDGET
        + util["hbm"] * HBM_BUDGET
        + util["cmem"] * CMEM_BUDGET
        + util["network"] * NETWORK_BUDGET
    )
    power = hw.idle_power_w + dynamic
    return PowerReport(
        hardware=hw.name,
        time_s=result.total_time_s,
        power_w=power,
        energy_j=power * result.total_time_s,
        mxu_utilization=util["mxu"],
        hbm_utilization=util["hbm"],
        cmem_utilization=util["cmem"],
    )
