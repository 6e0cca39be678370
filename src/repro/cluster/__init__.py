"""Fleet-scale multi-aggregate cluster simulation.

Tens to hundreds of aggregate-scale simulators ("shards") run as
independent members of one fleet, hosting thousands of tenant FlexVols
driven by the vectorized traffic engine.  The package layers on top of
everything below it:

* :mod:`~repro.cluster.stats` — shard identities (picklable specs) and
  the scheduler-visible stats snapshot, with the fleet seed derivation.
* :mod:`~repro.cluster.volumes` — tenant volume requests and
  deterministic fleet builders (including the noisy-neighbor fleet).
* :mod:`~repro.cluster.scheduler` — the Cinder-style filter/weigher
  volume scheduler and the seeded random control arm.
* :mod:`~repro.cluster.shard` — one live shard: simulator, calibration,
  epoch traffic, carryover, and the picklable advance-to-epoch task.
* :mod:`~repro.cluster.cluster` — the fleet: scheduling rounds with
  stats refreshes on resident shards, from-scratch replay as the oracle
  (byte-identical across worker counts), the ``cluster`` bench experiment.
* :mod:`~repro.cluster.migration` — online volume migration with drain
  and replay, block-conservation checks, audits, and Iron scans; the
  fleet as a drill subject and the events that move volumes across it
  (hot-spot rebalance, aggregate kill, evacuation).
"""

from .cluster import Cluster, ClusterResult, make_shard_specs, run_cluster_bench
from .migration import (
    Evacuate,
    Evacuation,
    Fleet,
    KillShard,
    MigrateShard,
    MigrationReport,
    migrate_volume,
    run_rebalance,
)
from .scheduler import (
    AAPressureWeigher,
    CapacityFilter,
    FilterScheduler,
    FreeSpaceWeigher,
    HeadroomWeigher,
    Placement,
    QosHeadroomFilter,
    RandomPlacer,
    TailLatencyWeigher,
)
from .shard import ShardRuntime
from .stats import ShardSpec, ShardStats, derive_seed
from .volumes import VolumeRequest, noisy_fleet_requests

__all__ = [
    "AAPressureWeigher",
    "CapacityFilter",
    "Cluster",
    "ClusterResult",
    "Evacuate",
    "Evacuation",
    "FilterScheduler",
    "Fleet",
    "FreeSpaceWeigher",
    "HeadroomWeigher",
    "KillShard",
    "MigrateShard",
    "MigrationReport",
    "Placement",
    "QosHeadroomFilter",
    "RandomPlacer",
    "ShardRuntime",
    "ShardSpec",
    "ShardStats",
    "TailLatencyWeigher",
    "VolumeRequest",
    "derive_seed",
    "make_shard_specs",
    "migrate_volume",
    "noisy_fleet_requests",
    "run_cluster_bench",
    "run_rebalance",
]
