"""FlexVol volumes: virtualized WAFL file systems inside an aggregate.

A FlexVol's data has "both a physical VBN to specify the physical
location of the block and a virtual VBN to specify the block's offset
within the FlexVol" (paper section 2.1); write allocation assigns both.
Virtual VBN assignment has no effect on physical layout — its objective
is purely to colocate allocations in the number space so that few
bitmap-metafile blocks are consulted and updated (section 2.5), which
is why FlexVols use RAID-agnostic AAs with the HBPS cache.

The client-visible surface is a flat *logical block* space (modeling
the LUNs/files the benchmarks write to).  The volume keeps two maps:

* ``l2v`` — logical block -> virtual VBN (the file tree, collapsed);
* ``v2p`` — virtual VBN -> physical VBN (the container file), private
  behind ``physical_of``/``mapped``/``remap`` and thin like WAFL's.

A client overwrite allocates a fresh (virtual, physical) pair and
frees the previous pair — the COW behaviour that makes "random
overwrites create worst-case fragmentation" (section 4.1).
"""

from __future__ import annotations

import mmap
import sys
from collections.abc import Iterable
from types import MappingProxyType

import numpy as np

from ..common.config import VolumeDecl
from ..common.errors import AllocationError
from ..core.aa import LinearAATopology
from ..core.policies import PolicyKind
from ..core.space import AllocSpace
from .aggregate import StoreCPReport

__all__ = ["FlexVol"]


#: Commit no swap up front, so a map near 2^31 entries (8 GiB) builds
#: under a smaller commit limit; Linux's value where ``mmap`` lacks it.
_NORESERVE = getattr(mmap, "MAP_NORESERVE", 0x4000 if sys.platform == "linux" else 0)


def _hole_map(n: int) -> np.ndarray:
    """``n`` int32 zeros on private anonymous pages: a page costs memory
    only once written (``np.zeros`` may memset reused heap memory)."""
    pages = mmap.mmap(-1, 4 * n, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | _NORESERVE)
    return np.frombuffer(pages, dtype=np.int32)


class FlexVol(AllocSpace):
    """One live FlexVol, built from its :class:`VolumeDecl` (kept as
    ``spec``): a linear :class:`AllocSpace` over its virtual VBNs (HBPS
    cache) plus the logical/virtual/physical maps and snapshots."""

    def __init__(
        self,
        decl: VolumeDecl,
        *,
        policy: PolicyKind = PolicyKind.CACHE,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.spec = decl
        self.name = decl.name
        nblocks = decl.resolved_virtual_blocks
        super().__init__(
            LinearAATopology(nblocks, decl.resolved_blocks_per_aa),
            where=f"vol:{decl.name}", policy=policy, seed=seed,
        )
        #: logical block -> virtual VBN (-1 = never written; int32, see MAX_VBN_SPACE).
        self.l2v = np.full(decl.logical_blocks, -1, dtype=np.int32)
        #: virtual VBN -> physical VBN + 1 (0 = hole).
        self._v2p = _hole_map(nblocks)
        #: Snapshots: name -> virtual VBNs captured (COW pinning).
        self._snapshots: dict[str, np.ndarray] = {}
        #: Union mask of snapshot-held virtual VBNs, None while no
        #: snapshot is held; overwrites and deletes of held blocks defer
        #: their frees to snapshot deletion (the mass-free source the
        #: paper notes adds to free-space nonuniformity, section 4.1.1).
        self._snap_mask: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def nblocks(self) -> int:
        """Virtual VBN space size."""
        return self.topology.nblocks

    @property
    def used_blocks(self) -> int:
        """Mapped (live) virtual blocks (including the allocator's
        pending-span batch not yet reflected in the bitmap)."""
        return self.metafile.bitmap.allocated_count + self.allocator.pending_count

    def physical_of(self, virtual) -> np.ndarray:
        """Physical VBNs (-1 = hole) the container map gives ``virtual``:
        VBNs or a mask, never a slice, as the decode runs in place."""
        p = self._v2p[np.asarray(virtual)]
        p -= 1
        return p

    def mapped(self) -> np.ndarray:
        """Mask of the virtual VBNs the container map populates."""
        return self._v2p != 0

    def remap(self, virtual, physical: np.ndarray) -> None:
        """Point ``virtual`` at ``physical``; holes are written only by freeing."""
        if physical.size and physical.min() < 0:
            raise AllocationError(f"FlexVol {self.name}: remap cannot write a hole")
        self._v2p[virtual] = physical + 1

    def _unmap(self, virtual: np.ndarray) -> None:
        self._v2p[virtual] = 0

    # ------------------------------------------------------------------
    # CP write path (driven by the CP engine)
    # ------------------------------------------------------------------
    def stage_writes(self, logical_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Allocate virtual VBNs for the given (deduplicated) logical
        blocks and collect the old mappings to free.

        Returns ``(new_virtual, old_virtual, old_physical)``; the engine
        pairs ``new_virtual`` with freshly allocated physical VBNs via
        :meth:`commit_writes`.
        """
        logical_ids = np.asarray(logical_ids, dtype=np.int64)
        n = int(logical_ids.size)
        new_v = self.allocator.allocate(n)
        if new_v.size < n:
            raise AllocationError(
                f"FlexVol {self.name}: virtual VBN space exhausted "
                f"({new_v.size} of {n} allocated)"
            )
        old_v = self.l2v[logical_ids]
        old_v = old_v[old_v >= 0]
        # Snapshot-held blocks are not freed on overwrite: the snapshot
        # still references them (COW pinning).
        free_v = self._unpinned(old_v)
        old_p = self.physical_of(free_v)
        return new_v, free_v, old_p

    def commit_writes(
        self,
        logical_ids: np.ndarray,
        new_virtual: np.ndarray,
        new_physical: np.ndarray,
        old_virtual: np.ndarray,
    ) -> None:
        """Install new mappings and log the old virtual VBNs as delayed
        frees (the engine logs the old physical VBNs with the store)."""
        logical_ids = np.asarray(logical_ids, dtype=np.int64)
        self.l2v[logical_ids] = new_virtual
        self.remap(new_virtual, new_physical)
        if old_virtual.size:
            self._unmap(old_virtual)
            self.delayed_frees.add(old_virtual)

    # ------------------------------------------------------------------
    # Snapshots (extension; paper sections 1 and 4.1.1)
    # ------------------------------------------------------------------
    @property
    def snapshots(self) -> MappingProxyType[str, np.ndarray]:
        """Read-only view: snapshot name -> virtual VBNs it holds."""
        return MappingProxyType(self._snapshots)

    @property
    def pin_mask(self) -> np.ndarray | None:
        """The snapshot union mask, or None while no snapshot is held."""
        return self._snap_mask

    def _unpinned(self, vbns: np.ndarray) -> np.ndarray:
        """The given virtual VBNs that no snapshot holds."""
        return vbns if self._snap_mask is None else vbns[~self._snap_mask[vbns]]

    def _pin(self) -> None:
        """Rebuild the union mask from the held snapshots (None if none)."""
        self._snap_mask = None
        if self._snapshots:
            mask = np.zeros(self.nblocks, dtype=bool)
            # Each `held` is an index *array*: this is one fancy-index
            # scatter per snapshot, not an element-at-a-time loop.
            for held in self._snapshots.values():  # simlint: disable=B502
                mask[held] = True
            self._snap_mask = mask

    def restore_maps(self, l2v: np.ndarray, v2p: np.ndarray,
                     snapshots: Iterable[tuple[str, np.ndarray]]) -> None:
        """Install committed maps and pins (crash recovery; entries pre-checked)."""
        self.l2v[:] = l2v
        self._v2p = _hole_map(self.nblocks)
        populated = np.flatnonzero(v2p >= 0)
        self.remap(populated, v2p[populated])
        self._snapshots = {name: held.astype(np.int32) for name, held in snapshots}
        self._pin()

    def create_snapshot(self, name: str) -> int:
        """Capture the volume's current contents.

        WAFL snapshots are (nearly) free at creation: they pin the
        blocks mapped right now, so subsequent overwrites and deletes
        keep those blocks allocated.  Returns the block count pinned.
        """
        if name in self._snapshots:
            raise AllocationError(f"snapshot {name!r} already exists on {self.name}")
        self._snapshots[name] = held = self.l2v[self.l2v >= 0]
        if self._snap_mask is None:
            self._snap_mask = np.zeros(self.nblocks, dtype=bool)
        self._snap_mask[held] = True
        return int(held.size)

    def delete_snapshot(self, name: str) -> np.ndarray:
        """Delete a snapshot, freeing blocks no longer referenced.

        Returns the *physical* VBNs released (the caller logs them with
        the store); the virtual VBNs enter this volume's delayed-free
        log.  This is the bulk internal freeing whose "nonuniformity"
        the AA cache exploits (paper section 4.1.1).
        """
        if name not in self._snapshots:
            raise AllocationError(f"no snapshot {name!r} on {self.name}")
        held = self._snapshots.pop(name)
        self._pin()
        # A held block is freed iff the active file system no longer
        # maps it and no remaining snapshot pins it.
        active = np.zeros(self.nblocks, dtype=bool)
        live = self.l2v[self.l2v >= 0]
        active[live] = True
        to_free = self._unpinned(held[~active[held]])
        if to_free.size == 0:
            return np.empty(0, dtype=np.int64)
        old_p = self.physical_of(to_free)
        self._unmap(to_free)
        self.delayed_frees.add(to_free)
        return old_p

    def stage_deletes(self, logical_ids: np.ndarray) -> np.ndarray:
        """Unmap the given logical blocks (file deletion): their virtual
        VBNs are logged as delayed frees and the backing physical VBNs
        are returned for the engine to free with the store."""
        logical_ids = np.asarray(logical_ids, dtype=np.int64)
        old_v = self.l2v[logical_ids]
        mapped_ids = logical_ids[old_v >= 0]
        old_v = old_v[old_v >= 0]
        if old_v.size == 0:
            return np.empty(0, dtype=np.int64)
        self.l2v[mapped_ids] = -1
        free_v = self._unpinned(old_v)
        if free_v.size == 0:
            return np.empty(0, dtype=np.int64)
        old_p = self.physical_of(free_v)
        self._unmap(free_v)
        self.delayed_frees.add(free_v)
        return old_p

    # ------------------------------------------------------------------
    def cp_boundary(self) -> StoreCPReport:
        """Volume-side CP boundary: apply delayed virtual frees, flush
        score deltas into the AA cache, drain metafile dirty counts.
        (Virtual VBNs have no device cost; only metadata accounting.)"""
        report = StoreCPReport()
        report.blocks_freed = int(self.apply_frees().size)
        self.allocator.cp_flush()
        report.add_space_deltas(self.drain_cp())
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlexVol(name={self.name!r}, logical={self.spec.logical_blocks}, "
            f"virtual={self.nblocks}, used={self.used_blocks})"
        )
