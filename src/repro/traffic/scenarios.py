"""Canned multi-tenant traffic scenarios.

Three scenarios cover the QoS stories a multi-tenant array has to tell
(EXPERIMENTS.md, "Multi-tenant traffic and QoS"):

``uniform``
    N identical Poisson tenants at ~60% of calibrated backend capacity
    — the steady multi-client load of the paper's latency-throughput
    sweeps (:func:`load_curve` runs those, one tenant per volume), on
    the testbed the single-tenant saturation check
    (``tests/traffic/knee.py``) uses.
``noisy-neighbor``
    Tenant 0 offers ~1.5x the whole backend's capacity, unthrottled.
    Tenant 1 is the QoS-protected victim: IOPS-capped with a bounded
    admission queue, so its p99 stays bounded (shed load, not latency)
    while the aggressor saturates the backend and eats its own backlog.
    Remaining tenants are moderate bystanders (one bursty on/off).
``throttled``
    Same population, but the aggressor is also IOPS-capped with a
    bounded queue — the backend comes off saturation and every
    tenant's tail collapses back to service time.

Tenant rates are expressed as fractions of *calibrated* capacity (a
short random-overwrite measurement on the freshly aged sim), so the
scenarios keep their shape across quick/full configurations and future
allocator changes.  All randomness flows from the run seed through
:func:`repro.common.rng.spawn`, so runs replay byte-identically.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..common.config import AggregateSpec, TierSpec, VolumeDecl
from ..common.constants import CORES, NCLIENTS
from ..common.rng import make_rng, spawn
from ..fs.filesystem import WaflSim
from ..sim.stats import bottleneck_capacity_ops
from ..workloads.aging import (
    age_filesystem,
    reset_measurement_state,
    set_bitmap_checks,
)
from ..workloads.mixes import OpMix, UniformOverwriteMix, ZipfOverwriteMix
from ..workloads.random_overwrite import RandomOverwriteWorkload
from .arrivals import OnOffArrivals, PoissonArrivals
from .engine import TARGET_OPS_PER_CP, TenantSpec, TrafficEngine, TrafficResult
from .qos import QosLimits

__all__ = [
    "SCENARIOS",
    "DEFAULT_TENANTS",
    "CalibratedService",
    "build_traffic_sim",
    "calibrate_capacity",
    "build_scenario",
    "TrafficRun",
    "run_traffic",
    "SUSTAINED",
    "load_curve",
]

SCENARIOS = ("uniform", "noisy-neighbor", "throttled")

#: Tenants a scenario runs when not told otherwise.
DEFAULT_TENANTS = 4

#: Share of physical capacity the tenant volumes fill (section 4.1).
FILL_FRACTION = 0.55

#: A load point is *sustained* when the engine served at least this
#: share of the ops that arrived in the run; past the knee the backlog
#: grows and the share falls below it.
SUSTAINED = 0.99


@dataclass(frozen=True)
class CalibratedService:
    """Per-op service costs measured on the aged sim before traffic."""

    cpu_us_per_op: float
    device_us_per_op: float
    cores: int

    @property
    def capacity_ops(self) -> float:
        """Backend saturation throughput (ops/s, whole server)."""
        return bottleneck_capacity_ops(
            self.cpu_us_per_op, self.device_us_per_op, self.cores
        )


def build_traffic_sim(
    n_tenants: int,
    *,
    blocks_per_disk: int = 65_536,
    churn_factor: float = 1.0,
    seed: int = 42,
) -> WaflSim:
    """An aged all-SSD aggregate with one FlexVol per tenant.

    Same testbed shape as :func:`repro.bench.harness.build_aged_ssd_sim`
    (section 4.1: filled to 55% and fragmented by heavy random writes),
    but carved into ``n_tenants`` equal volumes named ``tenant0..N-1``.
    Built here rather than imported from ``bench`` because ``traffic``
    sits below ``bench`` in the package DAG.
    """
    if n_tenants <= 0:
        raise ValueError("n_tenants must be positive")
    tier = TierSpec(
        label="ssd",
        media="ssd",
        n_groups=2,
        ndata=4,
        blocks_per_disk=blocks_per_disk,
        erase_block_blocks=512,
        program_us_per_block=16.0,
    )
    phys = 2 * 4 * blocks_per_disk
    logical = int(phys * FILL_FRACTION)
    share = logical // n_tenants
    vols = tuple(
        VolumeDecl(
            f"tenant{i}",
            logical_blocks=share if i < n_tenants - 1 else logical - share * (n_tenants - 1),
        )
        for i in range(n_tenants)
    )
    sim = WaflSim.build(AggregateSpec(tiers=(tier,), volumes=vols), seed=seed)
    age_filesystem(sim, churn_factor=churn_factor, ops_per_cp=16384, seed=seed)
    reset_measurement_state(sim)
    set_bitmap_checks(sim, False)
    return sim


def calibrate_capacity(
    sim: WaflSim,
    *,
    cores: int = CORES,
    n_cps: int = 6,
    ops_per_cp: int = TARGET_OPS_PER_CP,
    seed: int = 4242,
) -> CalibratedService:
    """Measure per-op service costs on the aged sim, then reset it.

    A short random-overwrite burst at the engine's CP batch size yields
    the cpu/device cost per op; scenario rates are then expressed as
    fractions of the implied capacity so they keep their shape across
    configurations.  Measurement state is reset afterwards, so the
    traffic run starts from clean metrics.
    """
    wl = RandomOverwriteWorkload(sim, ops_per_cp=ops_per_cp, seed=seed)
    sim.run(wl, n_cps)
    m = sim.metrics
    cal = CalibratedService(
        cpu_us_per_op=m.cpu_us_per_op,
        device_us_per_op=m.device_us_per_op,
        cores=cores,
    )
    reset_measurement_state(sim)
    return cal


def _vol_blocks(sim: WaflSim, name: str) -> int:
    return sim.vols[name].spec.logical_blocks


def build_scenario(
    name: str,
    sim: WaflSim,
    capacity_ops: float,
    *,
    n_tenants: int = DEFAULT_TENANTS,
    seed: int = 7,
) -> list[TenantSpec]:
    """Tenant specs for one named scenario (see module docstring).

    Tenant 0 is the aggressor in the contended scenarios; tenant 1 the
    QoS-protected victim; tenant 2 (when present) a bursty on/off
    bystander; further tenants are moderate Poisson clients.
    """
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; pick one of {SCENARIOS}")
    if n_tenants <= 0:
        raise ValueError("n_tenants must be positive")
    if name != "uniform" and n_tenants < 2:
        raise ValueError(f"scenario {name!r} needs an aggressor and a victim")
    rng = make_rng(seed)
    seeds = spawn(rng, 2 * n_tenants)
    tenants: list[TenantSpec] = []

    if name == "uniform":
        per_tenant = 0.6 * capacity_ops / n_tenants
        for i in range(n_tenants):
            vol = f"tenant{i}"
            tenants.append(
                TenantSpec(
                    name=f"t{i}",
                    volume=vol,
                    arrivals=PoissonArrivals(per_tenant, seed=seeds[2 * i]),
                    mix=UniformOverwriteMix(
                        _vol_blocks(sim, vol), seed=seeds[2 * i + 1]
                    ),
                )
            )
        return tenants

    # Contended scenarios share the population; only the aggressor's
    # QoS contract differs.
    aggressor_qos = None
    aggressor_depth = None
    if name == "throttled":
        aggressor_qos = QosLimits(iops=0.25 * capacity_ops, iops_burst=64.0)
        aggressor_depth = 128
    tenants.append(
        TenantSpec(
            name="t0-aggressor",
            volume="tenant0",
            arrivals=PoissonArrivals(1.5 * capacity_ops, seed=seeds[0]),
            mix=UniformOverwriteMix(_vol_blocks(sim, "tenant0"), seed=seeds[1]),
            qos=aggressor_qos,
            queue_depth=aggressor_depth,
        )
    )
    victim_cap = 0.04 * capacity_ops
    tenants.append(
        TenantSpec(
            name="t1-victim",
            volume="tenant1",
            # Offers 2x its QoS cap, so throttling (and load shedding)
            # is visibly exercised while p99 stays bounded by
            # queue_depth / iops.
            arrivals=PoissonArrivals(2.0 * victim_cap, seed=seeds[2]),
            mix=ZipfOverwriteMix(_vol_blocks(sim, "tenant1"), seed=seeds[3]),
            qos=QosLimits(iops=victim_cap, iops_burst=32.0),
            queue_depth=64,
        )
    )
    for i in range(2, n_tenants):
        vol = f"tenant{i}"
        if i == 2:
            arrivals = OnOffArrivals(
                0.3 * capacity_ops,
                mean_on_us=300_000.0,
                mean_off_us=300_000.0,
                seed=seeds[2 * i],
            )
        else:
            arrivals = PoissonArrivals(0.05 * capacity_ops, seed=seeds[2 * i])
        tenants.append(
            TenantSpec(
                name=f"t{i}",
                volume=vol,
                arrivals=arrivals,
                mix=UniformOverwriteMix(
                    _vol_blocks(sim, vol), seed=seeds[2 * i + 1]
                ),
            )
        )
    return tenants


@dataclass
class TrafficRun:
    """A finished scenario run: the result plus the live engine/sim
    (kept for CLI tables, fault injection, and series inspection)."""

    scenario: str
    result: TrafficResult
    calibration: CalibratedService
    engine: TrafficEngine
    sim: WaflSim


def run_traffic(
    scenario: str = "noisy-neighbor",
    *,
    n_tenants: int = DEFAULT_TENANTS,
    seed: int = 7,
    quick: bool = True,
    n_cps: int | None = None,
    blocks_per_disk: int | None = None,
    cores: int = CORES,
) -> TrafficRun:
    """Build, calibrate, and run one named scenario end to end.

    The aging seed is fixed (the testbed is part of the scenario); the
    run ``seed`` drives arrivals and op mixes, so two runs with the
    same seed replay byte-identically and different seeds decorrelate.
    """
    if blocks_per_disk is None:
        blocks_per_disk = 65_536 if quick else 131_072
    if n_cps is None:
        n_cps = 40 if quick else 80
    # simlint: disable=F804 — run_traffic's scenario seed drives arrivals/QoS
    # only; the filesystem substrate is built from the canonical seed (42) so
    # per-scenario results share one testbed
    sim = build_traffic_sim(
        n_tenants,
        blocks_per_disk=blocks_per_disk,
        churn_factor=1.0 if quick else 2.0,
    )
    # simlint: disable=F804 — calibration must stay identical across scenario
    # seeds (canonical 4242) so offered-load fractions are comparable between
    # runs
    cal = calibrate_capacity(sim, cores=cores)
    tenants = build_scenario(
        scenario, sim, cal.capacity_ops, n_tenants=n_tenants, seed=seed
    )
    engine = TrafficEngine(
        sim, tenants, target_ops_per_cp=TARGET_OPS_PER_CP, cores=cores
    )
    engine.run(n_cps)
    result = engine.summary()
    return TrafficRun(
        scenario=scenario, result=result, calibration=cal, engine=engine, sim=sim
    )


def load_curve(
    sim: WaflSim,
    offered_per_client: Sequence[float],
    make_mix: Callable[[int, np.random.Generator], OpMix],
    *,
    target_ops_per_cp: int,
    n_cps: int,
    seed: int,
) -> list[list[float]]:
    """The latency vs achieved throughput curve of Figures 6, 8 and 9.

    At each load point a deep copy of ``sim`` serves :data:`NCLIENTS`
    clients offering ``offered_per_client`` ops/s each: one Poisson
    tenant per volume, the total split by logical size, drawing through
    ``make_mix(logical_blocks, rng)``, for ``n_cps`` CPs of about
    ``target_ops_per_cp`` ops.  The arrival and mix streams depend on
    ``seed`` and the point's index only, so two configurations swept
    with one seed see the same clients.

    Returns ``[offered, achieved, mean latency (ms)]`` per point, the
    throughputs per client as the engine measured them (arrived and
    completed ops over the run); a point is sustained when ``achieved >=
    SUSTAINED * offered``.
    """
    points = []
    streams = spawn(make_rng(seed), len(offered_per_client))
    for load, rng in zip(offered_per_client, streams):
        run = copy.deepcopy(sim)
        sizes = {name: vol.spec.logical_blocks for name, vol in run.vols.items()}
        total = sum(sizes.values())
        seeds = spawn(rng, 2 * len(sizes))
        tenants = [
            TenantSpec(
                name=name, volume=name,
                arrivals=PoissonArrivals(NCLIENTS * load * size / total, seed=seeds[2 * i]),
                mix=make_mix(size, seeds[2 * i + 1]),
            )
            for i, (name, size) in enumerate(sizes.items())
        ]
        engine = TrafficEngine(run, tenants, target_ops_per_cp=target_ops_per_cp)
        served = engine.run(n_cps).summary().tenants.values()
        completed = sum(t.completed for t in served)
        points.append([
            sum(t.offered_ops_s for t in served) / NCLIENTS,
            sum(t.achieved_ops_s for t in served) / NCLIENTS,
            sum(t.mean_ms * t.completed for t in served) / completed if completed else 0.0,
        ])
    return points
