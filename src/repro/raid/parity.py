"""Stripe-write classification and parity I/O accounting.

A *full stripe write* lets RAID compute parity without additional
reads; a *partial stripe write* forces RAID to read blocks from the
stripe first (paper section 2.3, Figure 1).  Given the set of VBNs a
consistency point writes into one RAID group, this module classifies
every touched stripe and charges the extra parity reads using the
cheaper of the two standard parity-update strategies:

* **subtractive** — read the old data for the k overwritten blocks plus
  the old parity (k + nparity reads);
* **reconstructive** — read the ndata - k untouched data blocks.

It also computes per-disk write-chain statistics: contiguous runs of
DBNs that a device can absorb as a single large I/O ("long write
chains", paper section 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from .geometry import RAIDGeometry
from .tetris import count_tetrises

__all__ = ["StripeWriteStats", "analyze_raid_writes", "chain_lengths"]


@dataclass
class StripeWriteStats:
    """Outcome of analyzing one CP's writes to one RAID group."""

    #: Data blocks written (host writes landing on data disks).
    data_blocks: int = 0
    #: Stripes touched by at least one data-block write.
    stripes_written: int = 0
    #: Stripes in which every data block was written together.
    full_stripes: int = 0
    #: Stripes written only partially (require parity reads).
    partial_stripes: int = 0
    #: Parity blocks written (stripes_written * nparity).
    parity_blocks_written: int = 0
    #: Blocks read to recompute parity for partial stripes.
    parity_blocks_read: int = 0
    #: Distinct tetrises (64-stripe write units) touched.
    tetrises: int = 0
    #: Stripes written while the group was missing devices (every
    #: touched stripe counts while degraded).
    degraded_stripes: int = 0
    #: Extra reads forced by degraded-mode parity computation: with a
    #: device missing, parity for a touched stripe can only be computed
    #: from the surviving members, so the group reads every surviving
    #: block it did not write (reconstruct-on-write).
    reconstruction_reads: int = 0
    #: Blocks written per data disk.
    blocks_per_disk: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: Contiguous write chains per data disk.
    chains_per_disk: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: Disk-major sorted view of the analyzed writes (disk ascending,
    #: DBN ascending within a disk).  Computed once for chain analysis
    #: and reused by device pricing so it never re-sorts per disk.
    sorted_disks: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    sorted_dbns: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: Sorted unique stripe indexes touched (parity devices write these).
    touched_stripes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def total_chains(self) -> int:
        """Write chains summed over data disks (plus parity chains are
        proportional to stripes and tracked separately)."""
        return int(self.chains_per_disk.sum()) if self.chains_per_disk.size else 0

    @property
    def full_stripe_fraction(self) -> float:
        """Fraction of written stripes that were full."""
        return self.full_stripes / self.stripes_written if self.stripes_written else 0.0

    @property
    def mean_chain_length(self) -> float:
        """Average blocks per write chain across data disks."""
        chains = self.total_chains
        return self.data_blocks / chains if chains else 0.0


def chain_lengths(dbns: np.ndarray) -> np.ndarray:
    """Lengths of maximal runs of consecutive DBNs.

    ``dbns`` must be sorted and unique; returns an array of run lengths
    whose sum equals ``dbns.size``.
    """
    dbns = np.asarray(dbns, dtype=np.int64)
    if dbns.size == 0:
        return np.empty(0, dtype=np.int64)
    breaks = np.flatnonzero(np.diff(dbns) != 1)
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks + 1, [dbns.size]))
    return stops - starts


def analyze_raid_writes(
    geometry: RAIDGeometry,
    vbns: np.ndarray,
    *,
    failed_disks: int = 0,
) -> StripeWriteStats:
    """Classify one CP's writes (group-relative ``vbns``) against
    ``geometry`` and charge parity I/O.

    The input VBNs must be unique (each block is written once per CP —
    guaranteed by the COW allocator).

    ``failed_disks`` puts the analysis into degraded mode: the group is
    missing that many members (data or parity), so the subtractive
    parity strategy is unavailable (old data/parity may live on the
    missing device) and every touched stripe's parity is recomputed
    from the surviving blocks that were not written this CP.  The extra
    reads are charged as :attr:`StripeWriteStats.reconstruction_reads`
    (and folded into ``parity_blocks_read`` so existing latency
    accounting sees them).  The caller must stay within the parity
    budget (``failed_disks <= nparity``).
    """
    vbns = np.asarray(vbns, dtype=np.int64)
    stats = StripeWriteStats(
        blocks_per_disk=np.zeros(geometry.ndata, dtype=np.int64),
        chains_per_disk=np.zeros(geometry.ndata, dtype=np.int64),
    )
    if vbns.size == 0:
        return stats
    with obs.span("raid.analyze", blocks=int(vbns.size), degraded=failed_disks):
        return _analyze(geometry, vbns, stats, failed_disks)


def _analyze(
    geometry: RAIDGeometry,
    vbns: np.ndarray,
    stats: StripeWriteStats,
    failed_disks: int,
) -> StripeWriteStats:
    # VBNs are disk-major (vbn = disk * blocks_per_disk + dbn), so one
    # plain sort of the VBNs *is* the (disk, dbn) lexicographic order;
    # everything below derives from it instead of sorting per key.
    bpd = geometry.blocks_per_disk
    sv = np.sort(vbns)
    sd = sv // bpd
    sb = sv - sd * bpd  # sv % bpd, reusing the division

    # Stripe occupancy: how many of each touched stripe's data blocks
    # were written in this CP.  The touched stripes live in a narrow
    # DBN window, so a bincount over that window beats a second sort.
    dmin = int(sb.min())
    occupancy = np.bincount(sb - dmin)
    touched_off = np.flatnonzero(occupancy)
    touched = touched_off + dmin
    counts = occupancy[touched_off]
    stats.data_blocks = int(vbns.size)
    stats.stripes_written = int(touched.size)
    full = counts == geometry.ndata
    stats.full_stripes = int(full.sum())
    stats.partial_stripes = stats.stripes_written - stats.full_stripes
    # A mirror device copies exactly its twin's written blocks; parity
    # devices write one block per touched stripe.
    stats.parity_blocks_written = (
        stats.data_blocks
        if geometry.mirrored
        else stats.stripes_written * geometry.nparity
    )

    if failed_disks:
        # Degraded mode: read every surviving member block not written
        # this CP, for every touched stripe (full stripes included —
        # their parity must still encode the missing device's data).
        survivors = geometry.ndata + geometry.nparity - failed_disks
        reads = np.maximum(survivors - counts, 0)
        stats.reconstruction_reads = int(reads.sum())
        stats.parity_blocks_read = stats.reconstruction_reads
        stats.degraded_stripes = stats.stripes_written
    elif not geometry.mirrored:
        # Parity reads for partial stripes: min(subtractive, reconstructive).
        # Mirrored groups skip this entirely: a mirror write is a plain
        # copy to the twin device, never a parity read-modify-write.
        k = counts[~full]
        if k.size:
            subtractive = k + geometry.nparity
            reconstructive = geometry.ndata - k
            stats.parity_blocks_read = int(np.minimum(subtractive, reconstructive).sum())

    stats.tetrises = count_tetrises(touched)

    # Per-disk blocks and chains.
    disk_bounds = np.searchsorted(sv, np.arange(geometry.ndata + 1) * bpd)
    stats.blocks_per_disk = np.diff(disk_bounds)
    stats.sorted_disks, stats.sorted_dbns = sd, sb
    stats.touched_stripes = touched
    if sd.size:
        # A chain breaks where the disk changes or the DBN is not
        # consecutive within the same disk.
        breaks = (np.diff(sd) != 0) | (np.diff(sb) != 1)
        chain_start_idx = np.concatenate(([0], np.flatnonzero(breaks) + 1))
        chain_disks = sd[chain_start_idx]
        stats.chains_per_disk = np.bincount(chain_disks, minlength=geometry.ndata).astype(
            np.int64
        )
    if obs.active():
        obs.count("raid.write_chains", stats.total_chains)
        if stats.reconstruction_reads:
            obs.count("raid.reconstruction_reads", stats.reconstruction_reads)
    return stats
