"""Measurement layer: CP metrics, CPU model, bottleneck capacity."""

from .cpu import CpuModel
from .stats import CPStats, MetricsLog, bottleneck_capacity_ops

__all__ = [
    "CpuModel",
    "CPStats",
    "MetricsLog",
    "bottleneck_capacity_ops",
]
