"""RAID group geometry and VBN <-> (disk, DBN) mapping.

ONTAP arranges HDDs/SSDs into RAID groups of N data devices plus P
parity devices (paper section 2.1; Figure 2 shows 3 data + 1 parity).
WAFL "maintains the mapping of physical VBN ranges to storage devices
based on their RAID topology" (paper section 3.1): each data device owns
a contiguous range of physical VBNs, and a *stripe* is the set of
blocks, one per device, sharing the same device block number (DBN) and
therefore the same parity block.

This module is purely geometric: it knows nothing about device timing
or free space.  All mappings are vectorized over NumPy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import GeometryError

__all__ = ["RAIDGeometry"]


@dataclass(frozen=True)
class RAIDGeometry:
    """Geometry of one RAID group.

    Parameters
    ----------
    ndata:
        Number of data devices (VBN-bearing).
    nparity:
        Number of parity devices (1 = RAID 4, 2 = RAID-DP, 3 = RAID-TEC).
    blocks_per_disk:
        4 KiB data blocks per device; equals the number of stripes.
    mirrored:
        Mirrored group (RAID 1 / SyncMirror-style): every "parity"
        device holds a full copy of its data device, so writes never
        pay a parity read-modify-write and ``nparity`` must equal
        ``ndata``.
    """

    ndata: int
    nparity: int
    blocks_per_disk: int
    mirrored: bool = False

    def __post_init__(self) -> None:
        if self.ndata < 1:
            raise GeometryError("a RAID group needs at least one data device")
        if self.nparity < 0:
            raise GeometryError("negative parity device count")
        if self.blocks_per_disk < 8 or self.blocks_per_disk % 8:
            raise GeometryError("blocks_per_disk must be a positive multiple of 8")
        if self.mirrored and self.nparity != self.ndata:
            raise GeometryError(
                "a mirrored group needs one mirror device per data device "
                f"(ndata={self.ndata}, nparity={self.nparity})"
            )

    # ------------------------------------------------------------------
    @property
    def ndisks(self) -> int:
        """Total devices in the group (data + parity)."""
        return self.ndata + self.nparity

    @property
    def stripes(self) -> int:
        """Number of stripes (== blocks per device)."""
        return self.blocks_per_disk

    @property
    def data_blocks(self) -> int:
        """Size of this group's physical VBN space in blocks."""
        return self.ndata * self.blocks_per_disk

    # ------------------------------------------------------------------
    # VBN <-> (disk, dbn).  VBNs are numbered disk-major within the
    # group: data disk d owns VBNs [d * blocks_per_disk,
    # (d+1) * blocks_per_disk).  Stripe s is the set {(d, s) for all d}.
    # ------------------------------------------------------------------
    def dbn_of(self, vbns: np.ndarray | int) -> np.ndarray:
        """Device block number (== stripe index) for each VBN."""
        vbns = np.asarray(vbns, dtype=np.int64)
        # ``%`` via one floor division: ~2x faster than int64 ``%`` on NumPy 2.x.
        return vbns - (vbns // self.blocks_per_disk) * self.blocks_per_disk

    def stripe_of(self, vbns: np.ndarray | int) -> np.ndarray:
        """Stripe index for each VBN (alias of :meth:`dbn_of`)."""
        return self.dbn_of(vbns)

    def vbn(self, disk: np.ndarray | int, dbn: np.ndarray | int) -> np.ndarray:
        """Group-relative VBN for (data disk, DBN) pairs."""
        disk = np.asarray(disk, dtype=np.int64)
        dbn = np.asarray(dbn, dtype=np.int64)
        if np.any((disk < 0) | (disk >= self.ndata)):
            raise GeometryError("data disk index out of range")
        if np.any((dbn < 0) | (dbn >= self.blocks_per_disk)):
            raise GeometryError("DBN out of range")
        return disk * self.blocks_per_disk + dbn

    def stripe_vbns(self, stripe: int) -> np.ndarray:
        """All data VBNs belonging to ``stripe``, one per data disk."""
        if not 0 <= stripe < self.stripes:
            raise GeometryError(f"stripe {stripe} out of range [0, {self.stripes})")
        return np.arange(self.ndata, dtype=np.int64) * self.blocks_per_disk + stripe

    def stripe_range_vbns(self, start_stripe: int, stop_stripe: int) -> list[tuple[int, int]]:
        """Per-disk ``(vbn_start, vbn_stop)`` ranges covering stripes
        ``[start_stripe, stop_stripe)`` — the VBN extent of a
        stripe-defined allocation area (Figure 3)."""
        if not 0 <= start_stripe <= stop_stripe <= self.stripes:
            raise GeometryError(f"bad stripe range [{start_stripe}, {stop_stripe})")
        return [
            (d * self.blocks_per_disk + start_stripe, d * self.blocks_per_disk + stop_stripe)
            for d in range(self.ndata)
        ]
