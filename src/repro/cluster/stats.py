"""Shard descriptions and the per-shard statistics the scheduler reads.

A *shard* is one aggregate-scale simulator (a :class:`~repro.fs
.filesystem.WaflSim` with its own RAID groups, calibration volume, and
tenant FlexVols) running as an independent member of a fleet.  Two
shapes cross the process boundary:

* :class:`ShardSpec` — the immutable, picklable identity of a shard.
  A pool worker rebuilds the *entire* shard from its spec plus the
  placement list, so results are byte-identical regardless of which
  worker (or how many workers) ran it.
* :class:`ShardStats` — the mutable snapshot the filter/weigher
  scheduler consumes: capacity, free space, allocation-area pressure
  (the AA cache's best available score), QoS commitment, and the worst
  measured tenant tail from the last scheduling epoch.  The Cinder
  analogy: what a volume driver reports to the scheduler between
  placement rounds.

Seeds derive with :func:`repro.common.rng.derive_seed` (as the bench
runner's per-unit seeds do), so a shard's stream depends only on its
own identity — never on which co-tenants landed elsewhere in the fleet.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..common.config import TierSpec
from ..common.rng import derive_seed

__all__ = ["derive_seed", "ShardSpec", "ShardStats"]


@dataclass(frozen=True)
class ShardSpec:
    """Immutable, picklable identity of one fleet shard."""

    shard_id: int
    #: Root seed of everything stochastic on this shard (build, fill,
    #: calibration, tenant streams) via :func:`derive_seed`.
    seed: int
    #: The shard aggregate's one tier (its RAID groups and devices).
    tier: TierSpec


@dataclass
class ShardStats:
    """One shard's scheduler-visible state between placement rounds."""

    shard_id: int
    total_blocks: int
    #: Measured free blocks at the last stats refresh.
    free_blocks: int
    #: Free blocks net of placements made since the refresh (the
    #: scheduler decrements this as it places within a round).
    projected_free_blocks: int
    #: Sum of placed tenants' offered load, as a fraction of this
    #: shard's calibrated capacity (the QoS-headroom commitment).
    committed_fraction: float
    n_volumes: int
    media: tuple[str, ...]
    ndata: int
    #: Calibrated backend saturation throughput (ops/s).
    capacity_ops: float
    #: Best available AA score across the aggregate's caches, as a
    #: fraction of AA size — the TopAA/HBPS view of allocation-area
    #: pressure (lower = more fragmented).
    aa_free_fraction: float
    #: Service-tier roles this shard's media can fill (sorted
    #: :class:`repro.tiering.Tier` value strings).
    tiers: tuple[str, ...] = ()
    #: Worst per-tenant p99 measured in the last epoch (ms; 0 = idle).
    worst_p99_ms: float = 0.0
    #: Dead shards (chaos kills) are never scheduling candidates.
    alive: bool = True
    #: Volumes placed here, in placement order (scheduler bookkeeping).
    placed: list[str] = field(default_factory=list)

    def note_placement(self, request) -> None:
        """Project a placement into this snapshot so later placements
        in the same round see the shard as fuller and busier."""
        self.projected_free_blocks -= request.logical_blocks
        self.committed_fraction += request.offered_fraction
        self.n_volumes += 1
        self.placed.append(request.name)

    def as_dict(self) -> dict:
        d = asdict(self)
        d["media"] = list(self.media)
        d["tiers"] = list(self.tiers)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ShardStats":
        d = dict(d)
        d["media"] = tuple(d["media"])
        d["tiers"] = tuple(d.get("tiers", ()))
        return cls(**d)
