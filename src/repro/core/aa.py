"""Allocation areas (AAs): fixed-size regions of the block number space.

WAFL "defines fixed-size regions of the block number space, called
allocation areas, and tracks the availability of free space within each
region" (paper section 3).  The AA topology — which blocks belong to
which AA — depends on the storage beneath the VBN space:

* :class:`StripeAATopology` — for media arranged into a RAID group, an
  AA is a set of consecutive *stripes* spanning every data device
  (paper section 3.1, Figures 2 and 3).  Writing a whole AA therefore
  produces full stripe writes and long per-device chains.
* :class:`LinearAATopology` — for storage with native redundancy
  (object stores) and for the virtual VBN space of a FlexVol, an AA is
  a set of consecutive VBNs (paper section 3.1).

Both expose the same interface: mapping VBNs to AAs, enumerating an
AA's VBN extents, computing all AA scores from a bitmap in one
vectorized pass (the "linear walk of the bitmap metafiles" used when
rebuilding a cache, paper section 3.4), and yielding an AA's free VBNs
in allocation order.
"""

from __future__ import annotations

import abc

import numpy as np

from ..common.errors import GeometryError
from ..bitmap.bitmap import Bitmap
from ..raid.geometry import RAIDGeometry

__all__ = ["AATopology", "StripeAATopology", "LinearAATopology"]


class AATopology(abc.ABC):
    """Mapping between a VBN space and its allocation areas.

    Subclasses provide geometry-specific layouts; all scores follow the
    paper's definition: *the AA score is the number of free blocks in
    the AA* (section 3.3).
    """

    #: Number of allocation areas.
    num_aas: int
    #: Capacity of each AA in blocks (== the best possible score).
    aa_blocks: int
    #: Total blocks in the covered VBN space.
    nblocks: int

    @abc.abstractmethod
    def aa_of_vbn(self, vbns: np.ndarray | int) -> np.ndarray:
        """AA index for each VBN."""

    @abc.abstractmethod
    def aa_extents(self, aa: int) -> list[tuple[int, int]]:
        """Contiguous ``(start, stop)`` VBN ranges composing AA ``aa``."""

    @abc.abstractmethod
    def scores_from_bitmap(self, bitmap: Bitmap) -> np.ndarray:
        """Free-block count of every AA, computed in one bitmap pass."""

    @abc.abstractmethod
    def free_vbns(self, bitmap: Bitmap, aa: int, limit: int | None = None) -> np.ndarray:
        """Free VBNs of AA ``aa`` in allocation order, up to ``limit``.

        Allocation order is the order in which the write allocator
        assigns "all free VBNs from the AA in sequential order" (paper
        section 3.1): ascending VBN for linear AAs, stripe-major for
        RAID AAs (so stripes fill completely before moving on).
        """

    # ------------------------------------------------------------------
    def aa_score(self, bitmap: Bitmap, aa: int) -> int:
        """Free-block count of a single AA (consulting the bitmap)."""
        self._check_aa(aa)
        free = 0
        for start, stop in self.aa_extents(aa):
            free += (stop - start) - bitmap.count_range(start, stop)
        return free

    def _check_aa(self, aa: int) -> None:
        if not 0 <= aa < self.num_aas:
            raise GeometryError(f"AA {aa} out of range [0, {self.num_aas})")


class StripeAATopology(AATopology):
    """RAID-aware AA layout: each AA is ``stripes_per_aa`` consecutive
    stripes across all data devices of one RAID group (Figure 3).

    VBNs are group-relative (disk-major, per
    :class:`~repro.raid.geometry.RAIDGeometry`), so one AA consists of
    ``ndata`` disjoint VBN extents — one per data device.
    """

    def __init__(self, geometry: RAIDGeometry, stripes_per_aa: int) -> None:
        if stripes_per_aa <= 0 or stripes_per_aa % 8:
            raise GeometryError("stripes_per_aa must be a positive multiple of 8")
        if geometry.stripes % stripes_per_aa:
            raise GeometryError(
                f"{geometry.stripes} stripes not divisible by AA size {stripes_per_aa}"
            )
        self.geometry = geometry
        self.stripes_per_aa = int(stripes_per_aa)
        self.num_aas = geometry.stripes // self.stripes_per_aa
        self.aa_blocks = self.stripes_per_aa * geometry.ndata
        self.nblocks = geometry.data_blocks

    def aa_of_vbn(self, vbns: np.ndarray | int) -> np.ndarray:
        dbns = self.geometry.dbn_of(vbns)
        return dbns // self.stripes_per_aa

    def aa_extents(self, aa: int) -> list[tuple[int, int]]:
        self._check_aa(aa)
        return self.geometry.stripe_range_vbns(
            aa * self.stripes_per_aa, (aa + 1) * self.stripes_per_aa
        )

    def scores_from_bitmap(self, bitmap: Bitmap) -> np.ndarray:
        if bitmap.nblocks != self.nblocks:
            raise GeometryError("bitmap does not cover this RAID group's VBN space")
        # counts_per_chunk over stripes_per_aa-sized chunks yields, in
        # disk-major order, one count per (disk, AA) cell; fold disks.
        per_chunk = bitmap.counts_per_chunk(self.stripes_per_aa)
        allocated = per_chunk.reshape(self.geometry.ndata, self.num_aas).sum(axis=0)
        return self.aa_blocks - allocated

    def free_vbns(self, bitmap: Bitmap, aa: int, limit: int | None = None) -> np.ndarray:
        self._check_aa(aa)
        geom = self.geometry
        bpd = geom.blocks_per_disk
        first = aa * self.stripes_per_aa
        # Stripe-major without sorting: unpack each disk's AA extent
        # (byte-aligned: ``stripes_per_aa`` and ``blocks_per_disk`` are
        # multiples of 8, refused otherwise), stack into a (stripes,
        # disks) matrix, and scan it row-major — each row is one stripe
        # across all disks, which *is* the stripe-major fill order.
        cols = [
            bitmap.allocated_bits(d * bpd + first, d * bpd + first + self.stripes_per_aa)
            for d in range(geom.ndata)
        ]
        idx = np.flatnonzero(np.stack(cols, axis=1).ravel() == 0)
        rows = idx // geom.ndata
        disks = idx - rows * geom.ndata
        out = disks * bpd + (first + rows)
        if limit is not None:
            out = out[:limit]
        return out


class LinearAATopology(AATopology):
    """RAID-agnostic AA layout: each AA is ``blocks_per_aa`` consecutive
    VBNs.  The default size of 32k VBNs matches one bitmap-metafile
    block, so filling one AA dirties exactly one metafile block (paper
    sections 2.5 and 3.2.1)."""

    def __init__(self, nblocks: int, blocks_per_aa: int) -> None:
        if blocks_per_aa <= 0 or blocks_per_aa % 8:
            raise GeometryError("blocks_per_aa must be a positive multiple of 8")
        if nblocks <= 0 or nblocks % blocks_per_aa:
            raise GeometryError(
                f"nblocks {nblocks} not divisible by AA size {blocks_per_aa}"
            )
        self.nblocks = int(nblocks)
        self.blocks_per_aa = int(blocks_per_aa)
        self.num_aas = self.nblocks // self.blocks_per_aa
        self.aa_blocks = self.blocks_per_aa

    def aa_of_vbn(self, vbns: np.ndarray | int) -> np.ndarray:
        vbns = np.asarray(vbns, dtype=np.int64)
        return vbns // self.blocks_per_aa

    def aa_extents(self, aa: int) -> list[tuple[int, int]]:
        self._check_aa(aa)
        return [(aa * self.blocks_per_aa, (aa + 1) * self.blocks_per_aa)]

    def scores_from_bitmap(self, bitmap: Bitmap) -> np.ndarray:
        if bitmap.nblocks != self.nblocks:
            raise GeometryError("bitmap does not cover this VBN space")
        return self.blocks_per_aa - bitmap.counts_per_chunk(self.blocks_per_aa)

    def free_vbns(self, bitmap: Bitmap, aa: int, limit: int | None = None) -> np.ndarray:
        self._check_aa(aa)
        (start, stop), = self.aa_extents(aa)
        return bitmap.free_in_range(start, stop, limit)
