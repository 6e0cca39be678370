"""Chaos under load: disk failure and repair beneath live traffic.

:mod:`repro.faults.scenario` proves the recovery machinery absorbs
faults under a single scripted workload.  This module asks the
production question on top of the multi-tenant traffic engine: when a
data disk dies *while N tenants are being served*, does every tenant
keep completing operations (zero failed allocations), and what happens
to each tenant's tail latency across the healthy → degraded → repaired
phases?  Degraded-mode RAID charges reconstruction reads into the CP's
device time, so the engine's charge-back makes the per-tenant latency
cost of the failure directly measurable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..common.errors import AllocationError, OutOfSpaceError
from ..fs.aggregate import RAIDStore
from ..traffic.engine import TrafficEngine
from ..traffic.scenarios import (
    DEFAULT_TENANTS,
    build_scenario,
    build_traffic_sim,
    calibrate_capacity,
)

__all__ = ["PHASES", "UnderLoadMetrics", "run_chaos_under_load"]

PHASES = ("healthy", "degraded", "repaired")


@dataclass
class UnderLoadMetrics:
    """Outcome of one chaos-under-load run (same-seed deterministic)."""

    cps_completed: int = 0
    #: Allocation requests that failed — the acceptance bar is zero.
    failed_allocations: int = 0
    disk_failures: int = 0
    disks_replaced: int = 0
    rebuild_us: float = 0.0
    #: Degraded-RAID accounting across the run.
    reconstruction_reads: int = 0
    degraded_stripes: int = 0
    #: phase -> tenant -> p99 latency (ms) of ops completing in-phase.
    phase_p99_ms: dict[str, dict[str, float]] = field(default_factory=dict)
    #: phase -> tenant -> ops completed in-phase.
    phase_completed: dict[str, dict[str, int]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def run_chaos_under_load(
    *,
    scenario: str = "uniform",
    n_tenants: int = DEFAULT_TENANTS,
    seed: int = 7,
    n_cps: int = 30,
    fail_at_cp: int | None = None,
    replace_at_cp: int | None = None,
    group: int = 0,
    disk: int = 1,
    blocks_per_disk: int = 65_536,
) -> tuple[UnderLoadMetrics, TrafficEngine]:
    """Run a traffic scenario with a mid-run disk failure and repair.

    Disk ``disk`` of RAID group ``group`` fails before CP
    ``fail_at_cp`` (default: a third in) and is replaced (rebuilt from
    parity) before CP ``replace_at_cp`` (default: two thirds in).  The
    traffic engine keeps serving every tenant throughout; per-tenant
    p99 is reported separately for the healthy, degraded, and repaired
    phases.  Returns ``(metrics, engine)``; the engine's summary holds
    whole-run per-tenant results.
    """
    if fail_at_cp is None:
        fail_at_cp = int(n_cps * (1 / 3))
    if replace_at_cp is None:
        replace_at_cp = int(n_cps * (2 / 3))
    if not 0 < fail_at_cp < replace_at_cp < n_cps:
        raise ValueError(
            f"need 0 < fail_at_cp ({fail_at_cp}) < replace_at_cp "
            f"({replace_at_cp}) < n_cps ({n_cps})"
        )
    # simlint: disable=F804 — chaos-under-load varies only the fault schedule;
    # the traffic testbed is pinned to the canonical build seed (42) so
    # failures replay against an identical substrate
    sim = build_traffic_sim(n_tenants, blocks_per_disk=blocks_per_disk)
    if not isinstance(sim.store, RAIDStore):
        raise ValueError("chaos-under-load requires a RAID store")
    # simlint: disable=F804 — capacity calibration is pinned to its canonical
    # seed (4242) so the knee estimate is a property of the config, not of the
    # chaos seed
    cal = calibrate_capacity(sim)
    tenants = build_scenario(
        scenario, sim, cal.capacity_ops, n_tenants=n_tenants, seed=seed
    )
    engine = TrafficEngine(sim, tenants)
    metrics = UnderLoadMetrics()
    for cp in range(n_cps):
        if cp == fail_at_cp:
            sim.store.fail_disk(group, disk)
            metrics.disk_failures += 1
        if cp == replace_at_cp:
            metrics.rebuild_us += sim.store.groups[group].replace_disk(disk)
            metrics.disks_replaced += 1
        try:
            engine.step()
            metrics.cps_completed += 1
        except (AllocationError, OutOfSpaceError):
            metrics.failed_allocations += 1
    for stats in sim.metrics.cps:
        metrics.reconstruction_reads += stats.reconstruction_reads
        metrics.degraded_stripes += stats.degraded_stripes

    edges_us = (
        0.0,
        fail_at_cp * engine.cp_interval_us,
        replace_at_cp * engine.cp_interval_us,
        engine.clock_us,
    )
    for phase, lo, hi in zip(PHASES, edges_us[:-1], edges_us[1:]):
        p99s: dict[str, float] = {}
        counts: dict[str, int] = {}
        for st in engine.states:
            complete = st.complete_array()
            latency = st.latency_array()
            mask = (complete > lo) & (complete <= hi)
            n = int(mask.sum())
            counts[st.spec.name] = n
            p99s[st.spec.name] = (
                float(np.percentile(latency[mask], 99)) / 1e3 if n else 0.0
            )
        metrics.phase_p99_ms[phase] = p99s
        metrics.phase_completed[phase] = counts
    return metrics, engine
