"""Iron: one reference pass, and the checker and repair tool on it (extension).

Paper section 3.4: "In rare cases, if the metafile blocks are damaged
in the physical media and RAID is unable to reconstruct them, the
online WAFL repair tool — WAFL Iron — is used to recompute and recover
them."  Bitmap metafiles, AA scores and AA caches are *derived* state:
the references in the file trees and container maps are the ground
truth everything else is recomputed from.

:func:`reference_pass` computes that truth once per sim, read-only.  A
volume's reference is ``l2v`` ∪ snapshot pins ∪ pending frees, one mask.
A physical instance's is every volume's populated ``v2p`` scattered into
one store-wide *owned* mask, plus pending physical frees; ``Σ mapped −
count_nonzero(owned)`` counts the owners beyond the first.  Each is
compared with its bitmap in packed form (*leaked*: allocated,
unreferenced; *corrupt*: referenced, free) and its keeper with one
``scores_from_bitmap`` walk.  :func:`scan` reports it, :func:`repair`
installs it, and :func:`repro.analysis.auditor.audit_sim` and
:meth:`WaflSim.verify_consistency` read it too.  Run it between
consistency points, like the real tool's file-system-consistent
checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..core.space import AllocSpace

if TYPE_CHECKING:
    from .filesystem import WaflSim

__all__ = ["IronFinding", "IronReport", "SpaceTruth", "map_counts", "reference_pass", "scan", "repair"]

#: The counts :func:`scan` reports, in order.
IRON_KINDS = ("leaked", "corrupt", "score-divergence", "shared")


@dataclass(frozen=True)
class IronFinding:
    """One class of inconsistency in one file-system instance."""

    #: "leaked" (allocated, unreferenced), "corrupt" (referenced,
    #: marked free), "score-divergence", or "shared" (owners beyond the
    #: first of physical VBNs, on the group holding them).
    kind: str
    #: "vol:<name>" or "group:<index>" / "store".
    where: str
    count: int

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"{self.kind} x{self.count} in {self.where}"


@dataclass(frozen=True)
class SpaceTruth:
    """One space's references, read against its bitmap and keeper."""

    space: AllocSpace
    #: The referenced VBNs, packed like the bitmap's bytes.
    packed: np.ndarray
    #: ``scores_from_bitmap`` of the bitmap as found; AAs the keeper differs in.
    scores: np.ndarray
    diverged: np.ndarray
    #: Iron's kinds and, for a volume, ``outside`` (``v2p`` entries past
    #: the store), :func:`map_counts`' three and ``refreed`` (pending frees
    #: still mapped or pinned).
    counts: dict[str, int]
    #: A volume's mapped or pinned VBNs.
    active: int = 0


@dataclass
class IronReport:
    """Outcome of a scan or repair pass."""

    findings: list[IronFinding] = field(default_factory=list)
    repaired: bool = False

    @classmethod
    def of(cls, truths: list[SpaceTruth]) -> IronReport:
        """Iron's kinds of a reference pass, per space."""
        return cls([IronFinding(kind, t.space.where, t.counts[kind])
                    for t in truths for kind in IRON_KINDS if t.counts.get(kind)])

    @property
    def clean(self) -> bool:
        return not self.findings

    def count(self, kind: str) -> int:
        return sum(f.count for f in self.findings if f.kind == kind)

    def by_where(self) -> dict[str, list[IronFinding]]:
        """Findings grouped by file-system instance (``where`` label).

        The recovery path uses this to scope escalation: only the
        volumes/groups that actually have findings are put into
        degraded allocation and repaired.
        """
        grouped: dict[str, list[IronFinding]] = {}
        for f in self.findings:
            grouped.setdefault(f.where, []).append(f)
        return grouped


def map_counts(l2v: np.ndarray, pinned, mask: np.ndarray) -> tuple[np.ndarray, int, int, int]:
    """``mask`` comes in as the populated ``v2p`` entries and leaves as
    the virtual VBNs ``l2v`` maps or ``pinned`` (VBNs, a mask or None)
    holds.  Returns that packed, and the counts of ``l2v`` entries
    repeating a VBN and of stale / hole ``v2p`` entries: no sort."""
    mapped = np.packbits(mask, bitorder="little")
    mask[:] = False
    live = l2v[l2v >= 0]
    mask[live] = True
    duplicates = int(live.size - np.count_nonzero(mask))
    if pinned is not None:
        mask[pinned] = True
    packed = np.packbits(mask, bitorder="little")
    both = _ones(packed & mapped)
    return packed, duplicates, _ones(mapped) - both, _ones(packed) - both


def _ones(packed: np.ndarray) -> int:
    """Set bits of packed bytes, a word at a time when they are whole words."""
    words = packed.view(np.uint64) if packed.size % 8 == 0 else packed
    return int(np.bitwise_count(words).sum(dtype=np.int64))


def _truth(fs: AllocSpace, packed: np.ndarray, active: int = 0, **counts: int) -> SpaceTruth:
    bits = fs.metafile.bitmap.raw_bytes
    scores = fs.bitmap_scores()
    diverged = np.flatnonzero(scores != fs.keeper.scores)
    both = _ones(bits & packed)
    counts = {"leaked": _ones(bits) - both, "corrupt": _ones(packed) - both,
              "score-divergence": int(diverged.size), **counts}
    return SpaceTruth(fs, packed, scores, diverged, counts, active)


def reference_pass(sim: WaflSim, scope=None) -> list[SpaceTruth]:
    """Each space's :class:`SpaceTruth`, volumes first; with ``scope``
    (``where`` labels) only those spaces', though every volume's map
    still counts towards the physical owners."""
    instances = sim.store.physical_instances()
    wanted = [scope is None or where in scope for where, _, _ in instances]
    owned = np.zeros(sim.store.nblocks if any(wanted) else 0, dtype=bool)
    ends = [base + fs.topology.nblocks for _, fs, base in instances]
    owners = np.zeros(len(instances), dtype=np.int64)
    truths = []
    for vol in sim.vols.values():
        mask = vol.mapped()
        phys = vol.physical_of(np.flatnonzero(mask))  # a dense mask gathers slower
        outside = phys.size
        if phys.size and (phys.min() < 0 or phys.max() >= sim.store.nblocks):
            phys = phys[(phys >= 0) & (phys < sim.store.nblocks)]
        outside -= phys.size
        if owned.size:
            owned[phys] = True
            owners += np.diff([np.count_nonzero(phys < end) for end in ends[:-1]] + [phys.size], prepend=0)
        if scope is None or vol.where in scope:
            packed, duplicates, stale, holes = map_counts(vol.l2v, vol.pin_mask, mask)
            n_active, pending = _ones(packed), vol.delayed_frees.pending_vbns()
            refreed = int(np.count_nonzero(mask[pending]))
            if pending.size:
                mask[pending] = True
                packed = np.packbits(mask, bitorder="little")
            truths.append(_truth(vol, packed, n_active, outside=outside, duplicates=duplicates,
                                 stale=stale, holes=holes, refreed=refreed))
    for (_, fs, base), end, mapped, check in zip(instances, ends, owners.tolist(), wanted):
        if check:
            referenced = owned[base:end]
            shared = mapped - int(np.count_nonzero(referenced))
            referenced[fs.delayed_frees.pending_vbns()] = True
            truths.append(_truth(fs, np.packbits(referenced, bitorder="little"), shared=shared))
    return truths


def scan(sim: WaflSim) -> IronReport:
    """Read-only cross-check of bitmaps, references, owners and scores."""
    return IronReport.of(reference_pass(sim))


def repair(sim: WaflSim, scope=None, *, rebuild_caches: bool = True) -> IronReport:
    """Recompute bitmaps, scores, and caches from the reference maps.

    Returns only the findings that were actually fixed — with ``scope``
    set, file systems outside it are neither scanned nor touched, so
    escalation driven by :meth:`IronReport.by_where` repairs exactly
    the damaged instances.  A *shared* block is never among them: the
    container maps are primary state, so Iron cannot tell which owner
    is right, and a rescan still reports it.

    ``rebuild_caches=False`` repairs bitmaps and score keepers but
    leaves the AA caches offline: each repaired file system is put into
    (or kept in) degraded allocation — the bitmap walk — so the caller
    controls when caches come back (see :mod:`repro.faults.recovery`).

    Note: blocks reported as *leaked* on the physical side that
    belonged to data not tracked by any container map (e.g. synthetic
    aging fills) are reclaimed — Iron trusts the file trees, exactly
    like the real tool.
    """
    truths = reference_pass(sim, scope)
    fixed = [f for f in IronReport.of(truths).findings if f.kind != "shared"]
    for t in truths:
        # Install the reference as the bitmap, then everything derived from it.
        fs = t.space
        bm = fs.metafile.bitmap
        fs.allocator.release()
        bm.load_bytes(t.packed)
        fs.metafile.drain_dirty()
        fs.keeper.recompute(bm)
        if not rebuild_caches:
            if not fs.degraded_alloc:
                fs.enter_degraded()
        elif fs.cache is not None or fs.degraded_alloc:
            fs.rebuild_cache(fs.keeper.scores)
    return IronReport(fixed, repaired=True)
