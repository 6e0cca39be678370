"""Typed, frozen configuration for the whole simulator.

Tunables used to be scattered across keyword defaults (CP threshold
fractions on :class:`~repro.fs.filesystem.WaflSim`, HBPS tuning on the
cache constructors, QoS defaults in :mod:`repro.traffic`, chaos
defaults in :mod:`repro.faults`).  This module consolidates them into
immutable dataclasses with one entry point, :meth:`SimConfig.default`;
callers override fields with :func:`dataclasses.replace`:

    from dataclasses import replace
    from repro.common.config import SimConfig

    cfg = SimConfig.default()
    cfg = replace(cfg, allocator=replace(cfg.allocator,
                                         threshold_fraction=0.1))

The config object is the only way to set these tunables; the legacy
loose keyword arguments on the builders were removed after their
one-release deprecation window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from .constants import (
    HBPS_BIN_WIDTH,
    HBPS_LIST_CAPACITY,
    RAID_AGNOSTIC_AA_BLOCKS,
    TETRIS_STRIPES,
)

__all__ = [
    "AllocatorConfig",
    "CacheConfig",
    "TrafficConfig",
    "FaultConfig",
    "ObsConfig",
    "ClusterConfig",
    "SimConfig",
    "TierSpec",
    "VolumeDecl",
    "AggregateSpec",
]

#: RAID levels a :class:`TierSpec` may declare, with the parity-device
#: count each implies ("mirror" pairs every data device with a copy, so
#: its parity count is resolved against ``ndata`` at build time;
#: "none" is the natively redundant object backend).
RAID_LEVELS = ("raid4", "raid_dp", "mirror", "none")

#: Media families a :class:`TierSpec` may declare (the
#: :class:`~repro.devices.base.MediaType` value strings, kept primitive
#: so specs never import above ``common``).
MEDIA_FAMILIES = ("hdd", "ssd", "smr", "object")

#: Declared workload hints the per-volume tier chooser understands
#: (see :mod:`repro.tiering`): random-overwrite OLTP, streaming
#: sequential churn, archival cold data, or no hint.
WORKLOAD_HINTS = ("mixed", "oltp", "sequential", "archive")


@dataclass(frozen=True)
class AllocatorConfig:
    """Write-allocator tunables (paper section 3.3.1)."""

    #: Fragmentation cutoff: a RAID group whose best AA score is below
    #: ``threshold_fraction * aa_blocks`` is skipped while any other
    #: group remains above it.  0 disables the cutoff.
    threshold_fraction: float = 0.0
    #: Stripes taken from each group per round-robin turn (one tetris).
    stripes_per_round: int = TETRIS_STRIPES


@dataclass(frozen=True)
class CacheConfig:
    """AA-cache tunables (paper sections 3.3.1-3.3.2, 3.4)."""

    #: HBPS histogram bin width (paper default: 1K-wide bins).
    hbps_bin_width: int = HBPS_BIN_WIDTH
    #: HBPS best-AA list capacity (paper default: 1,000 entries).
    hbps_list_capacity: int = HBPS_LIST_CAPACITY


@dataclass(frozen=True)
class TrafficConfig:
    """Multi-tenant traffic-engine defaults (QoS substrate)."""

    #: CP pipeline parallelism: the paper's midrange server.
    cores: int = 20
    #: Ops per CP the engine targets when deriving ``cp_interval_us``
    #: (matches the figure benchmarks' batch sizes).
    target_ops_per_cp: int = 2048
    #: Closed-loop clients for the knee cross-validation.
    knee_nclients: int = 8
    #: Default tenant count for scenarios and the CLI.
    default_tenants: int = 4


@dataclass(frozen=True)
class TierSpec:
    """One tier of a heterogeneous aggregate: a media family plus the
    RAID geometry its groups share (primitives only, like every spec in
    this module, so tier specs pickle and serialize trivially)."""

    #: Unique tier name within the aggregate ("fast", "capacity", ...).
    label: str
    media: str = "ssd"
    #: RAID level of every group in this tier (see :data:`RAID_LEVELS`).
    raid: str = "raid4"
    n_groups: int = 1
    ndata: int = 6
    blocks_per_disk: int = 262144
    #: Stripes per AA; 0 selects the media-appropriate default.
    stripes_per_aa: int = 0
    #: Store AZCS checksum blocks (SMR tiers; paper section 3.2.4).
    azcs: bool = False
    #: Object tiers only: linear VBN-space size and AA size in blocks
    #: (0 selects the RAID-agnostic default).
    nblocks: int = 0
    blocks_per_aa: int = RAID_AGNOSTIC_AA_BLOCKS
    #: SSD tuning overrides (0/0.0 = the device model's defaults).
    erase_block_blocks: int = 0
    program_us_per_block: float = 0.0
    #: SMR zone-size override (0 = the device model's default).
    zone_blocks: int = 0
    #: SMR zone-rewrite penalty override (0.0 = the model's default).
    rewrite_penalty_us: float = 0.0

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("a tier needs a non-empty label")
        if self.media not in MEDIA_FAMILIES:
            raise ValueError(
                f"unknown media {self.media!r}; pick one of {MEDIA_FAMILIES}"
            )
        if self.raid not in RAID_LEVELS:
            raise ValueError(
                f"unknown RAID level {self.raid!r}; pick one of {RAID_LEVELS}"
            )
        if (self.media == "object") != (self.raid == "none"):
            raise ValueError(
                "object tiers (and only object tiers) are natively "
                "redundant: use media='object' with raid='none'"
            )
        if self.media == "object":
            if self.nblocks <= 0:
                raise ValueError("an object tier needs nblocks > 0")
        elif self.n_groups < 1 or self.ndata < 1:
            raise ValueError("a RAID tier needs n_groups >= 1 and ndata >= 1")

    @property
    def nparity(self) -> int:
        """Parity (or mirror) devices per group this level implies."""
        if self.raid == "raid_dp":
            return 2
        if self.raid == "mirror":
            return self.ndata
        return 0 if self.raid == "none" else 1

    @property
    def physical_blocks(self) -> int:
        """Data blocks this tier contributes to the aggregate."""
        if self.media == "object":
            return self.nblocks
        return self.n_groups * self.ndata * self.blocks_per_disk


@dataclass(frozen=True)
class VolumeDecl:
    """One FlexVol declaration inside an :class:`AggregateSpec`."""

    name: str
    logical_blocks: int
    #: Virtual VBN-space size; 0 derives the FlexVol default (1.5x).
    virtual_blocks: int = 0
    #: Volume AA size; 0 selects the RAID-agnostic default.
    blocks_per_aa: int = 0
    #: Declared workload hint for the tier chooser
    #: (see :data:`WORKLOAD_HINTS`).
    workload: str = "mixed"

    def __post_init__(self) -> None:
        if self.logical_blocks <= 0:
            raise ValueError("logical_blocks must be positive")
        if self.workload not in WORKLOAD_HINTS:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"pick one of {WORKLOAD_HINTS}"
            )


@dataclass(frozen=True)
class AggregateSpec:
    """Declarative description of one aggregate: its tiers, AA-selection
    policies, and volumes — the single input of
    :meth:`repro.fs.filesystem.WaflSim.build`."""

    tiers: tuple[TierSpec, ...]
    volumes: tuple[VolumeDecl, ...] = ()
    #: Store-side AA selection policy (a
    #: :class:`~repro.fs.aggregate.PolicyKind` value string).
    policy: str = "cache"
    #: Volume-side AA selection policy.
    vol_policy: str = "cache"

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiers", tuple(self.tiers))
        object.__setattr__(self, "volumes", tuple(self.volumes))
        if not self.tiers:
            raise ValueError("an aggregate needs at least one tier")
        labels = [t.label for t in self.tiers]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate tier labels in {labels}")
        names = [v.name for v in self.volumes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate volume names in {names}")

    @property
    def physical_blocks(self) -> int:
        return sum(t.physical_blocks for t in self.tiers)


@dataclass(frozen=True)
class FaultConfig:
    """Chaos/fault-injection defaults (:mod:`repro.faults`)."""

    #: Disk fails this fraction of the way into a chaos-under-load run.
    fail_at_fraction: float = 1 / 3
    #: Failed disk is replaced (rebuilt) at this fraction.
    replace_at_fraction: float = 2 / 3
    #: Testbed size for chaos-under-load.
    underload_blocks_per_disk: int = 65_536
    #: CPs driven by a chaos-under-load run.
    underload_n_cps: int = 30


@dataclass(frozen=True)
class ObsConfig:
    """Structured-tracer defaults (:mod:`repro.obs`)."""

    #: Ring-buffer capacity in records (spans + counter samples); the
    #: oldest records are evicted once full.
    ring_capacity: int = 65_536


@dataclass(frozen=True)
class ClusterConfig:
    """Fleet-scale cluster defaults (:mod:`repro.cluster`)."""

    #: Shard testbed size (small: a cluster builds many of these).
    blocks_per_disk: int = 4096
    #: RAID groups per shard aggregate.
    groups_per_shard: int = 2
    #: Data disks per RAID group.
    ndata: int = 4
    #: Traffic CPs driven per scheduling epoch.
    epoch_cps: int = 6
    #: Scheduling rounds (stats refresh between rounds).
    rounds: int = 2
    #: QoS headroom: total committed offered load admitted per shard,
    #: as a multiple of the shard's calibrated capacity.
    headroom_fraction: float = 3.0
    #: Fraction of a shard's free blocks the capacity filter may fill.
    capacity_slack: float = 0.9
    #: Weigher multipliers (Cinder-style weighted sum).
    #: Kept below the headroom multiplier on purpose: min–max
    #: normalization stretches even trivial free-space differences to
    #: [0, 1], so an evenly filled fleet would otherwise let noise-level
    #: block deltas outvote large committed-load differences.
    free_space_weight: float = 0.5
    aa_pressure_weight: float = 0.5
    #: Multiplier for the committed-load (provisioned QoS) weigher —
    #: the dominant signal until measured stats exist.
    headroom_weight: float = 2.0
    tail_latency_weight: float = 1.0


@dataclass(frozen=True)
class SimConfig:
    """All tunables, one immutable object.

    ``SimConfig.default()`` returns a shared default instance; derive
    variants with :func:`dataclasses.replace`.
    """

    allocator: AllocatorConfig = field(default_factory=AllocatorConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)

    _default: ClassVar["SimConfig | None"] = None

    @classmethod
    def default(cls) -> "SimConfig":
        """The shared default configuration (created once)."""
        if cls._default is None:
            cls._default = cls()
        return cls._default
