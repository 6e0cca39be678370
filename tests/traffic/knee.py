"""The traffic engine's saturation check (a test helper, like
:mod:`tests.traffic.oracle`).

Nothing in production calls it: it exists so ``test_knee.py`` can pin
the event-driven engine's saturation knee to the bottleneck capacity
(:func:`repro.sim.stats.bottleneck_capacity_ops`) of the same measured
per-op costs.
"""

from __future__ import annotations

from repro.common.constants import CORES
from repro.common.rng import make_rng, spawn
from repro.sim import bottleneck_capacity_ops
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.engine import TARGET_OPS_PER_CP, TenantSpec, TrafficEngine
from repro.traffic.scenarios import build_traffic_sim, calibrate_capacity
from repro.workloads.aging import reset_measurement_state
from repro.workloads.mixes import UniformOverwriteMix


def knee_validation(
    *,
    seed: int = 7,
    blocks_per_disk: int = 65_536,
    n_cps: int = 30,
    fractions: tuple[float, ...] = (0.5, 0.8, 1.2, 2.0),
    cores: int = CORES,
) -> dict:
    """Sweep the event engine across its saturation knee.

    Single tenant, uniform overwrites, fig6 quick configuration: the
    engine's knee (max achieved throughput over a sweep of offered
    loads) must sit at the bottleneck capacity of the per-op costs a
    calibration run measured — the engine's occupancy model saturates
    where that reference does (the test pins 10%).

    Returns the reference capacity, the event knee and the capacity the
    run's own CPs imply (whole-server ops/s), plus the sweep points.
    """
    # The canonical testbed (seed 42): re-seeding per run would decouple
    # the comparison from the calibration it validates.
    sim = build_traffic_sim(1, blocks_per_disk=blocks_per_disk)
    # The same canonical-seed (4242) calibration run_traffic uses.
    cal = calibrate_capacity(sim, cores=cores)
    capacity_ops = bottleneck_capacity_ops(cal.cpu_us_per_op, cal.device_us_per_op, cores)
    rng = make_rng(seed)
    seeds = spawn(rng, 2 * len(fractions))
    points = []
    event_knee_ops = 0.0
    for k, f in enumerate(fractions):
        reset_measurement_state(sim)
        offered = f * capacity_ops
        engine = TrafficEngine(
            sim,
            [
                TenantSpec(
                    name="t0",
                    volume="tenant0",
                    arrivals=PoissonArrivals(offered, seed=seeds[2 * k]),
                    mix=UniformOverwriteMix(
                        sim.vols["tenant0"].spec.logical_blocks, seed=seeds[2 * k + 1]
                    ),
                )
            ],
            target_ops_per_cp=TARGET_OPS_PER_CP,
            cores=cores,
        )
        engine.run(n_cps)
        result = engine.summary()
        summary = result.tenants["t0"]
        points.append(
            {
                "offered_fraction": f,
                "offered_ops_s": offered,
                "achieved_ops_s": summary.achieved_ops_s,
                "p99_ms": summary.p99_ms,
                "engine_capacity_ops": result.capacity_ops,
            }
        )
        if summary.achieved_ops_s > event_knee_ops:
            event_knee_ops = summary.achieved_ops_s
    return {
        "capacity_ops": capacity_ops,
        "event_knee_ops": event_knee_ops,
        "knee_ratio": event_knee_ops / capacity_ops,
        "cpu_us_per_op": cal.cpu_us_per_op,
        "device_us_per_op": cal.device_us_per_op,
        "points": points,
    }
