"""Measurement layer: CP metrics, CPU model, latency-throughput curves."""

from .cpu import CpuModel
from .latency import LoadPoint, peak_throughput, system_curve
from .stats import CPStats, MetricsLog

__all__ = [
    "CpuModel",
    "LoadPoint",
    "peak_throughput",
    "system_curve",
    "CPStats",
    "MetricsLog",
]
