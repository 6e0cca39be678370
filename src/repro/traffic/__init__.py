"""Multi-tenant traffic engine: discrete-event load generation,
per-volume QoS, and tail-latency measurement.

Layers (each importable on its own):

* :mod:`repro.traffic.arrivals` — Poisson and bursty on/off arrival
  processes on the simulated clock;
* :mod:`repro.traffic.qos` — the per-tenant IOPS token bucket and its
  admission limits;
* :mod:`repro.traffic.engine` — the discrete-event engine: admission,
  CP batching, SFQ backend service, per-tenant charge-back and
  percentile measurement;
* :mod:`repro.traffic.scenarios` — canned uniform / noisy-neighbor /
  throttled scenarios, and :func:`~repro.traffic.scenarios.load_curve`,
  the latency vs throughput sweep behind Figures 6, 8 and 9 (the
  single-tenant saturation check against the bottleneck capacity lives
  with the tests, ``tests/traffic/knee.py``).

Run one from the CLI with ``repro traffic noisy-neighbor --seed 7`` (4
tenants; 2 with ``--quick``) or the whole row in the sweep via ``repro
bench --experiments traffic``.
"""

from .arrivals import ArrivalProcess, OnOffArrivals, PoissonArrivals
from .engine import TenantSpec, TenantSummary, TrafficEngine, TrafficResult
from .qos import QosLimits, TokenBucket
from .scenarios import (
    SCENARIOS,
    CalibratedService,
    TrafficRun,
    build_scenario,
    build_traffic_sim,
    calibrate_capacity,
    load_curve,
    run_traffic,
)

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "OnOffArrivals",
    "QosLimits",
    "TokenBucket",
    "TenantSpec",
    "TenantSummary",
    "TrafficEngine",
    "TrafficResult",
    "SCENARIOS",
    "CalibratedService",
    "TrafficRun",
    "build_scenario",
    "build_traffic_sim",
    "calibrate_capacity",
    "load_curve",
    "run_traffic",
]
