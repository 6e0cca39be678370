"""Latency-versus-throughput curve generation.

The paper's Figures 6, 8 and 9 plot client-observed latency against
achieved per-client throughput as offered load increases.  Our
substitute for the Fibre Channel testbed (DESIGN.md section 1) is a
standard open-loop queueing transform: the simulator measures a
*service time per operation* (WAFL CPU + bottleneck device time), and
an M/M/1-shaped curve converts offered load into (achieved throughput,
latency) points:

* below saturation, latency ~ ``s / (1 - rho)`` — flat then rising;
* at and past saturation, achieved throughput pins at capacity and
  latency grows with the overload factor (queue build-up).

Absolute milliseconds depend on the device constants, but the relative
positions of two configurations — who sustains more load before the
knee, and at what latency — depend only on their measured service
times, which is exactly the comparison the paper makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.constants import CORES

#: Utilization at which the below-saturation queueing term stops
#: growing (keeps it finite at the knee).
RHO_CAP = 0.98

__all__ = [
    "LoadPoint",
    "bottleneck_capacity_ops",
    "system_curve",
    "peak_throughput",
]


@dataclass(frozen=True)
class LoadPoint:
    """One point of a latency-throughput sweep."""

    #: Offered load per client (ops/s).
    offered_per_client: float
    #: Achieved throughput per client (ops/s).
    achieved_per_client: float
    #: Mean client-observed latency (ms).
    latency_ms: float


def bottleneck_capacity_ops(
    cpu_us_per_op: float, device_us_per_op: float, cores: int
) -> float:
    """Saturation throughput (ops/s, whole server): WAFL's CP pipeline
    parallelizes across ``cores`` while the (already parallel-summed)
    bottleneck device does not; whichever saturates first pins it."""
    cpu_cap = cores * 1e6 / cpu_us_per_op if cpu_us_per_op else float("inf")
    dev_cap = 1e6 / device_us_per_op if device_us_per_op else float("inf")
    return min(cpu_cap, dev_cap)


def system_curve(
    cpu_us_per_op: float,
    device_us_per_op: float,
    offered_per_client: np.ndarray | list[float],
    *,
    nclients: int = 16,
    cores: int = CORES,
) -> list[LoadPoint]:
    """Latency-throughput sweep for a multi-core server.

    The paper's testbed is a 20-core midrange system (section 4.1):
    WAFL's CP pipeline parallelizes across cores, so CPU capacity is
    ``cores / cpu_us_per_op`` while the (already parallel-summed)
    bottleneck-device capacity is ``1 / device_us_per_op``.  Whichever
    resource saturates first pins throughput; a single operation's
    service latency is still the sum of its CPU and device components.

    All throughput values are **per client**: each of the ``nclients``
    concurrent clients offers ``offered_per_client`` ops/s.  The knee
    sits where total offered load reaches capacity; past it, achieved
    throughput pins at ``capacity / nclients`` while latency grows
    linearly with the overload factor (:data:`RHO_CAP` keeps the
    below-saturation queueing term finite at the knee).  ``cores=1``
    with a zero device cost is the plain single-server M/M/1 shape.
    """
    if cpu_us_per_op < 0 or device_us_per_op < 0:
        raise ValueError("per-op costs must be non-negative")
    capacity = bottleneck_capacity_ops(cpu_us_per_op, device_us_per_op, cores)
    service_us = cpu_us_per_op + device_us_per_op
    points: list[LoadPoint] = []
    for load in np.asarray(offered_per_client, dtype=np.float64):
        offered_total = load * nclients
        rho = offered_total / capacity
        if rho < RHO_CAP:
            latency_us = service_us / (1.0 - rho)
            achieved = load
        else:
            achieved = capacity / nclients
            latency_us = service_us / (1.0 - RHO_CAP) * max(rho, 1.0)
        points.append(LoadPoint(float(load), float(achieved), float(latency_us) / 1000.0))
    return points


def peak_throughput(points: list[LoadPoint]) -> LoadPoint:
    """The knee of a latency-throughput sweep.

    Returns the point with the highest *achieved per-client* throughput
    (ops/s); among points achieving it — every saturated point pins at
    ``capacity / nclients``, so ties are common — the one with the
    lowest latency wins.  That is the knee as the paper reports it: the
    last operating point before queueing delay departs from the flat
    region, a.k.a. the "peak load" row of Figures 6/8/9.  The returned
    :class:`LoadPoint` keeps per-client units; multiply
    ``achieved_per_client`` by the sweep's ``nclients`` for the
    whole-server saturation throughput.
    """
    if not points:
        raise ValueError("empty sweep")
    return max(points, key=lambda p: (p.achieved_per_client, -p.latency_ms))
