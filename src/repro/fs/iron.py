"""Iron: an online file-system checker and repair tool (extension).

Paper section 3.4: "In rare cases, if the metafile blocks are damaged
in the physical media and RAID is unable to reconstruct them, the
online WAFL repair tool — WAFL Iron — is used to recompute and recover
them."  The insight Iron relies on is that bitmap metafiles, AA scores,
and AA caches are all *derived* state: the references in the file
trees and container maps are the ground truth from which everything
else can be recomputed.

This module implements that recompute path for the simulator:

* :func:`scan` cross-checks each volume's bitmap against its reference
  truth (active ``l2v``/``v2p`` mappings plus snapshot-held blocks and
  pending delayed frees) and each RAID group's bitmap against the union
  of container-map physical references, reporting leaked blocks (marked
  allocated but unreferenced) and corruptions (referenced but marked
  free), plus AA-score divergence.
* :func:`repair` rewrites the bitmaps to match the reference truth,
  recomputes every score keeper, and rebuilds the AA caches — after
  which :func:`scan` reports clean.

Run it between consistency points (delayed-free logs drained), like
the real tool's file-system-consistent checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.arrayops import sorted_unique
from ..core.space import AllocSpace
from .filesystem import WaflSim

__all__ = ["IronFinding", "IronReport", "scan", "repair"]


@dataclass(frozen=True)
class IronFinding:
    """One class of inconsistency in one file-system instance."""

    #: "leaked" (allocated, unreferenced), "corrupt" (referenced,
    #: marked free), or "score-divergence".
    kind: str
    #: "vol:<name>" or "group:<index>" / "store".
    where: str
    count: int

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"{self.kind} x{self.count} in {self.where}"


@dataclass
class IronReport:
    """Outcome of a scan or repair pass."""

    findings: list[IronFinding] = field(default_factory=list)
    repaired: bool = False

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


def _vol_reference_virtual(vol) -> np.ndarray:
    """Ground-truth allocated virtual VBNs of one volume."""
    refs = [vol.l2v[vol.l2v >= 0]]
    for held in vol.snapshots.values():
        refs.append(held)
    pending = vol.delayed_frees.pending_vbns()
    if pending.size:
        refs.append(pending)
    if not refs:
        return np.empty(0, dtype=np.int64)
    return sorted_unique(np.concatenate(refs))


def _store_reference_physical(sim: WaflSim) -> np.ndarray:
    """Ground-truth allocated physical VBNs (container-map union plus
    pending physical delayed frees)."""
    refs = []
    for vol in sim.vols.values():
        p = vol.physical_of(vol.mapped())
        if p.size:
            refs.append(p)
    for _, fs, base in sim.store.physical_instances():
        pending = fs.delayed_frees.pending_vbns()
        if pending.size:
            refs.append(pending + base)
    if not refs:
        return np.empty(0, dtype=np.int64)
    return sorted_unique(np.concatenate(refs))


def _diff_bitmap(bitmap, reference: np.ndarray) -> tuple[int, int]:
    """(leaked, corrupt) counts for a bitmap vs sorted reference VBNs."""
    mask = np.zeros(bitmap.nblocks, dtype=bool)
    if reference.size:
        mask[reference] = True
    allocated = np.zeros(bitmap.nblocks, dtype=bool)
    alloc_idx = bitmap.allocated_in_range(0, bitmap.nblocks)
    allocated[alloc_idx] = True
    leaked = int(np.count_nonzero(allocated & ~mask))
    corrupt = int(np.count_nonzero(~allocated & mask))
    return leaked, corrupt


def _scoped_references(
    sim: WaflSim, scope
) -> list[tuple[AllocSpace, np.ndarray]]:
    """Each in-scope space paired with its ground-truth allocated
    (space-local) VBNs: volumes first, then physical instances."""
    out = [
        (vol, _vol_reference_virtual(vol))
        for vol in sim.vols.values()
        if scope is None or vol.where in scope
    ]
    phys_ref = _store_reference_physical(sim)
    for where, fs, base in sim.store.physical_instances():
        if scope is None or where in scope:
            lo, hi = base, base + fs.topology.nblocks
            out.append((fs, phys_ref[(phys_ref >= lo) & (phys_ref < hi)] - lo))
    return out


def scan(sim: WaflSim, scope=None) -> IronReport:
    """Read-only cross-check of bitmaps, references, and scores.

    ``scope`` — optional collection of ``where`` labels ("vol:<name>",
    "group:<i>", "store"); file systems outside it are not checked.
    None checks everything.
    """
    report = IronReport()
    for fs, ref in _scoped_references(sim, scope):
        leaked, corrupt = _diff_bitmap(fs.metafile.bitmap, ref)
        if leaked:
            report.findings.append(IronFinding("leaked", fs.where, leaked))
        if corrupt:
            report.findings.append(IronFinding("corrupt", fs.where, corrupt))
        diverged = int(np.count_nonzero(fs.bitmap_scores() != fs.keeper.scores))
        if diverged:
            report.findings.append(
                IronFinding("score-divergence", fs.where, diverged)
            )
    return report


def repair(sim: WaflSim, scope=None, *, rebuild_caches: bool = True) -> IronReport:
    """Recompute bitmaps, scores, and caches from the reference maps.

    Returns only the findings that were actually fixed — with ``scope``
    set, file systems outside it are neither scanned nor touched, so
    escalation driven by :meth:`IronReport.by_where` repairs exactly
    the damaged instances.

    ``rebuild_caches=False`` repairs bitmaps and score keepers but
    leaves the AA caches offline: each repaired file system is put into
    (or kept in) degraded allocation — the bitmap walk — so the caller
    controls when caches come back (see :mod:`repro.faults.recovery`).

    Note: blocks reported as *leaked* on the physical side that
    belonged to data not tracked by any container map (e.g. synthetic
    aging fills) are reclaimed — Iron trusts the file trees, exactly
    like the real tool.
    """
    report = scan(sim, scope)
    for fs, ref in _scoped_references(sim, scope):
        # Rewrite the bitmap to reference truth, then everything
        # derived from it.
        bm = fs.metafile.bitmap
        fs.allocator.release()
        bm.clear_range(0, bm.nblocks)
        bm.allocate(ref)
        fs.metafile.drain_dirty()
        fs.keeper.recompute(bm)
        if not rebuild_caches:
            if not fs.degraded_alloc:
                fs.enter_degraded()
        elif fs.cache is not None or fs.degraded_alloc:
            fs.rebuild_cache(fs.keeper.scores)
    report.repaired = True
    return report
