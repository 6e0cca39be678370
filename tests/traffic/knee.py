"""Cross-validation of the traffic engine against the closed-form
latency model (a test helper, like :mod:`tests.traffic.oracle`).

Nothing in production calls it: it exists so ``test_knee.py`` can pin
the event-driven engine's saturation knee to the M/M/1-shaped
transform's, both derived from the same measured per-op costs.
"""

from __future__ import annotations

from repro.common.constants import CORES, NCLIENTS
from repro.common.rng import make_rng, spawn
from repro.sim.latency import peak_throughput, system_curve
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
    """Cross-validate the event engine against the closed-form model.

    Single tenant, uniform overwrites, fig6 quick configuration: the
    M/M/1-shaped transform's knee (peak achieved throughput of
    :func:`repro.sim.latency.system_curve` over the same measured
    service costs) must agree with the event-driven engine's knee (max
    achieved throughput over a sweep of offered loads) — the two
    derive saturation from the same per-op costs, so they must land
    within tolerance (the test pins 10%).

    Returns mm1/event knees (whole-server ops/s) plus the sweep points.
    """
    # The canonical testbed (seed 42): re-seeding per run would decouple
    # the comparison from the calibration it validates.
    sim = build_traffic_sim(1, blocks_per_disk=blocks_per_disk)
    # The same canonical-seed (4242) calibration run_traffic uses.
    cal = calibrate_capacity(sim, cores=cores)
    offered_per_client = [
        f * cal.capacity_ops / NCLIENTS for f in (0.25, 0.5, 0.8, 0.95, 1.0, 1.5, 2.5)
    ]
    curve = system_curve(
        cal.cpu_us_per_op,
        cal.device_us_per_op,
        offered_per_client,
        nclients=NCLIENTS,
        cores=cores,
    )
    mm1_knee_ops = peak_throughput(curve).achieved_per_client * NCLIENTS
    rng = make_rng(seed)
    seeds = spawn(rng, 2 * len(fractions))
    points = []
    event_knee_ops = 0.0
    for k, f in enumerate(fractions):
        reset_measurement_state(sim)
        offered = f * cal.capacity_ops
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
        summary = engine.summary().tenants["t0"]
        points.append(
            {
                "offered_fraction": f,
                "offered_ops_s": offered,
                "achieved_ops_s": summary.achieved_ops_s,
                "p99_ms": summary.p99_ms,
            }
        )
        if summary.achieved_ops_s > event_knee_ops:
            event_knee_ops = summary.achieved_ops_s
    return {
        "mm1_knee_ops": mm1_knee_ops,
        "event_knee_ops": event_knee_ops,
        "knee_ratio": event_knee_ops / mm1_knee_ops if mm1_knee_ops else 0.0,
        "capacity_ops": cal.capacity_ops,
        "cpu_us_per_op": cal.cpu_us_per_op,
        "device_us_per_op": cal.device_us_per_op,
        "points": points,
    }
