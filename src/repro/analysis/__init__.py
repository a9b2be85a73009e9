"""Analysis utilities: Pareto fronts, bucketing, table formatting."""

from .ascii_plot import ascii_scatter
from .fleet import FleetEntry, fleet_table, mark_pareto
from .correlation import ProxyErrorReport, proxy_relative_error, spearman_correlation
from .report import (
    ConvergenceSummary,
    decision_drift,
    format_report,
    summarize,
)
from .pareto import (
    BucketStat,
    bucketize,
    geometric_mean,
    hypervolume_2d,
    pareto_front,
)
from .tables import format_table

__all__ = [
    "BucketStat",
    "ConvergenceSummary",
    "FleetEntry",
    "fleet_table",
    "mark_pareto",
    "ProxyErrorReport",
    "ascii_scatter",
    "proxy_relative_error",
    "spearman_correlation",
    "decision_drift",
    "format_report",
    "summarize",
    "bucketize",
    "format_table",
    "geometric_mean",
    "hypervolume_2d",
    "pareto_front",
]
