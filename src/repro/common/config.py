"""Declarative, frozen specs of what to build.

An aggregate is described by primitives only — :class:`TierSpec`,
:class:`VolumeDecl`, :class:`AggregateSpec` — so a spec pickles,
hashes and compares trivially and never imports above ``common``.
They are the only descriptions anything is built from: every RAID
group and member store from a :class:`TierSpec`, every FlexVol from a
:class:`VolumeDecl`.  There is no tunables object: the paper fixes its
structures by constants (:mod:`repro.common.constants`, or a named
constant beside the one function that reads it), and its single dial —
the section 3.3.1 fragmentation cutoff — is
:attr:`AggregateSpec.threshold_fraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import AZCS_DATA_BLOCKS, RAID_AGNOSTIC_AA_BLOCKS

__all__ = [
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

#: Every VBN space stays below this, so a FlexVol's int32 maps hold any VBN.
MAX_VBN_SPACE = 2**31

#: Device-model override fields of a :class:`TierSpec` and the one media
#: family whose device model reads each.
DEVICE_OVERRIDES = {
    "erase_block_blocks": "ssd",
    "program_us_per_block": "ssd",
    "zone_blocks": "smr",
    "rewrite_penalty_us": "smr",
}


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
    #: Store AZCS checksum blocks (SMR tiers only; paper section 3.2.4).
    azcs: bool = False
    #: Object tiers only: linear VBN-space size and AA size in blocks
    #: (0 selects the RAID-agnostic default).
    nblocks: int = 0
    blocks_per_aa: int = RAID_AGNOSTIC_AA_BLOCKS
    #: Device-model overrides, each read only by its media family's model
    #: (see :data:`DEVICE_OVERRIDES`); 0 keeps the model's default.
    erase_block_blocks: int = 0
    program_us_per_block: float = 0.0
    zone_blocks: int = 0
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
        if self.azcs and (self.media != "smr" or self.blocks_per_disk % AZCS_DATA_BLOCKS):
            raise ValueError(
                f"azcs needs media='smr' and blocks_per_disk % {AZCS_DATA_BLOCKS} == 0, "
                f"got media={self.media!r}, blocks_per_disk={self.blocks_per_disk}"
            )
        for name, media in DEVICE_OVERRIDES.items():
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0 or (value and self.media != media):
                raise ValueError(
                    f"{name} overrides the {media} device model and must be finite "
                    f"and >= 0, got {value!r} on media={self.media!r}"
                )

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
    #: Client-addressable logical blocks.
    logical_blocks: int
    #: Virtual VBN-space size; 0 derives the default
    #: (:attr:`resolved_virtual_blocks`).
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
        if self.resolved_virtual_blocks >= MAX_VBN_SPACE:
            raise ValueError(f"virtual_blocks must resolve below 2^31, "
                             f"got {self.resolved_virtual_blocks}")

    @property
    def resolved_blocks_per_aa(self) -> int:
        return self.blocks_per_aa or RAID_AGNOSTIC_AA_BLOCKS

    @property
    def resolved_virtual_blocks(self) -> int:
        """The declared virtual size, else 1.5x logical rounded up to
        whole AAs (thin-provisioned headroom so delayed frees never
        starve the virtual space)."""
        if self.virtual_blocks:
            return self.virtual_blocks
        aa = self.resolved_blocks_per_aa
        want = int(self.logical_blocks * 1.5) + aa
        return -(-want // aa) * aa


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
    #: Fragmentation cutoff (paper section 3.3.1, its one dial): a RAID
    #: group whose best AA score is below ``threshold_fraction *
    #: aa_blocks`` is skipped while any other group remains above it.
    #: 0 disables the cutoff.
    threshold_fraction: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiers", tuple(self.tiers))
        object.__setattr__(self, "volumes", tuple(self.volumes))
        if not self.tiers:
            raise ValueError("an aggregate needs at least one tier")
        if not 0.0 <= self.threshold_fraction < 1.0:
            raise ValueError(
                f"threshold_fraction must be in [0, 1), got {self.threshold_fraction}"
            )
        labels = [t.label for t in self.tiers]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate tier labels in {labels}")
        names = [v.name for v in self.volumes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate volume names in {names}")
        if self.physical_blocks >= MAX_VBN_SPACE:
            raise ValueError(f"physical_blocks summed over all tiers must be "
                             f"below 2^31, got {self.physical_blocks}")

    @property
    def physical_blocks(self) -> int:
        return sum(t.physical_blocks for t in self.tiers)
