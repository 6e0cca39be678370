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
  throttled scenarios (the single-tenant knee cross-validation against
  :mod:`repro.sim.latency` lives with the tests, ``tests/traffic/knee.py``).

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
    "run_traffic",
]
