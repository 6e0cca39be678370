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

__all__ = [
    "LoadPoint",
    "latency_throughput_curve",
    "bottleneck_capacity_ops",
    "system_curve",
    "peak_throughput",
    "degraded_read_amplification",
    "degraded_curve",
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

    def as_row(self) -> tuple[float, float, float]:
        return (self.offered_per_client, self.achieved_per_client, self.latency_ms)


def latency_throughput_curve(
    service_us_per_op: float,
    offered_per_client: np.ndarray | list[float],
    *,
    nclients: int = 16,
    rho_cap: float = 0.98,
) -> list[LoadPoint]:
    """Generate a latency-vs-achieved-throughput sweep.

    All throughput values are **per client**: each of the ``nclients``
    concurrent clients offers ``offered_per_client`` ops/s, so the
    server sees ``offered_per_client * nclients`` ops/s total.  The
    *knee* of the resulting curve — the saturation point where achieved
    throughput stops tracking offered load and latency turns upward —
    sits where total offered load reaches the whole-server capacity
    ``1e6 / service_us_per_op`` ops/s, i.e. at
    ``capacity / nclients`` ops/s per client.  Past the knee, achieved
    throughput pins there while latency grows linearly with the
    overload factor.  :func:`peak_throughput` extracts the knee point
    from a sweep; the event-driven engine in :mod:`repro.traffic` must
    reproduce the same knee from the same measured service time (the
    cross-validation test pins agreement to 10%).

    Parameters
    ----------
    service_us_per_op:
        Measured per-operation service time, microseconds (CPU +
        bottleneck device; :attr:`repro.sim.stats.MetricsLog.service_us_per_op`).
        For a multi-core server use :func:`system_curve`, which
        separates CPU capacity from device capacity.
    offered_per_client:
        Offered load levels to sweep, ops/s per client.
    nclients:
        Number of concurrent clients (the paper plots per-client rates).
    rho_cap:
        Utilization ceiling for the queueing term; keeps the
        below-saturation latency finite at the knee.

    Returns
    -------
    One :class:`LoadPoint` per offered level — offered and achieved
    throughput in ops/s per client, mean latency in milliseconds.
    """
    if service_us_per_op <= 0:
        raise ValueError("service time must be positive")
    capacity = 1e6 / service_us_per_op  # ops/s, whole server
    points: list[LoadPoint] = []
    for load in np.asarray(offered_per_client, dtype=np.float64):
        offered_total = load * nclients
        rho = offered_total / capacity
        if rho < rho_cap:
            latency_us = service_us_per_op / (1.0 - rho)
            achieved = load
        else:
            # Saturated: throughput pins at capacity; queueing delay
            # grows with the overload factor.
            achieved = capacity / nclients
            latency_us = service_us_per_op / (1.0 - rho_cap) * max(rho, 1.0)
        points.append(LoadPoint(float(load), float(achieved), float(latency_us) / 1000.0))
    return points


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
    cores: int = 20,
    rho_cap: float = 0.98,
) -> list[LoadPoint]:
    """Latency-throughput sweep for a multi-core server.

    The paper's testbed is a 20-core midrange system (section 4.1):
    WAFL's CP pipeline parallelizes across cores, so CPU capacity is
    ``cores / cpu_us_per_op`` while the (already parallel-summed)
    bottleneck-device capacity is ``1 / device_us_per_op``.  Whichever
    resource saturates first pins throughput; a single operation's
    service latency is still the sum of its CPU and device components.
    """
    if cpu_us_per_op < 0 or device_us_per_op < 0:
        raise ValueError("per-op costs must be non-negative")
    capacity = bottleneck_capacity_ops(cpu_us_per_op, device_us_per_op, cores)
    service_us = cpu_us_per_op + device_us_per_op
    points: list[LoadPoint] = []
    for load in np.asarray(offered_per_client, dtype=np.float64):
        offered_total = load * nclients
        rho = offered_total / capacity
        if rho < rho_cap:
            latency_us = service_us / (1.0 - rho)
            achieved = load
        else:
            achieved = capacity / nclients
            latency_us = service_us / (1.0 - rho_cap) * max(rho, 1.0)
        points.append(LoadPoint(float(load), float(achieved), float(latency_us) / 1000.0))
    return points


def degraded_read_amplification(ndata: int, nparity: int, failed_disks: int) -> float:
    """Expected device-read amplification while a RAID group is
    missing ``failed_disks`` members.

    A client read landing on a surviving member costs one device read;
    a read landing on a failed member must be reconstructed from all
    surviving members (``ndisks - failed`` reads).  With reads spread
    uniformly over members, the expectation is::

        1 + (failed / ndisks) * (survivors - 1)

    Amplification is 1.0 for a healthy group and grows toward the
    survivor count as more members fail (within the parity budget).
    """
    ndisks = ndata + nparity
    if not 0 <= failed_disks <= nparity:
        raise ValueError(
            f"failed_disks must be within the parity budget [0, {nparity}], "
            f"got {failed_disks}"
        )
    survivors = ndisks - failed_disks
    return 1.0 + (failed_disks / ndisks) * (survivors - 1)


def degraded_curve(
    service_us_per_op: float,
    offered_per_client: np.ndarray | list[float],
    *,
    ndata: int,
    nparity: int,
    failed_disks: int,
    device_fraction: float = 1.0,
    nclients: int = 16,
    rho_cap: float = 0.98,
) -> list[LoadPoint]:
    """Latency-throughput sweep for a degraded RAID group.

    Scales the device component of the measured service time (the
    ``device_fraction`` share of ``service_us_per_op``) by the
    degraded read amplification, leaving the CPU share unchanged —
    the modeled latency cost of running with failed members that
    :func:`repro.raid.parity.analyze_raid_writes` charges per CP.
    """
    amp = degraded_read_amplification(ndata, nparity, failed_disks)
    if not 0.0 <= device_fraction <= 1.0:
        raise ValueError(f"device_fraction must be in [0, 1], got {device_fraction}")
    device_us = service_us_per_op * device_fraction
    degraded_service = service_us_per_op - device_us + device_us * amp
    return latency_throughput_curve(
        degraded_service, offered_per_client, nclients=nclients, rho_cap=rho_cap
    )


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
