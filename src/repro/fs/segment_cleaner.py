"""Allocation-area segment cleaning (paper section 3.3.1, extension).

"WAFL improves AA scores through a process similar to segment cleaning,
in which the content of all in-use blocks in an entire allocation area
is relocated elsewhere on storage in order to generate completely empty
AAs.  Each AA near the top of the max-heap goes through this cleaning
process once, thereby ensuring a small pool of cleaned AAs.  Cleaning
AAs with the best scores implies the relocation of the fewest in-use
blocks, so just-in-time cleaning of AAs provided by the AA cache yields
the best return on investment."

The paper defers the full defragmentation design to future work; this
module implements the quoted mechanism against the simulator: check the
best AAs out of a RAID group's cache, find the volume blocks that live
in them, and relocate those in one consistency point
(:attr:`~repro.fs.cp.CPBatch.relocate`) to the group's own tier.  The
checked-out AAs cannot receive the copies, so they come back completely
empty for the next CP to consume.

The cleaning CP is priced, traced and audited like any other, so its
device writes count against the stripe quality it buys in the ablation
benchmark.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from ..common.errors import CacheError
from .cp import CPBatch

__all__ = ["CleanReport", "clean_best_aas"]


@dataclass
class CleanReport:
    """Outcome of one cleaning pass."""

    #: AAs fully emptied.
    aas_cleaned: int = 0
    #: Live blocks relocated (read + rewritten), one container-map
    #: entry each.
    blocks_moved: int = 0
    #: AAs skipped because they were already completely empty.
    aas_already_empty: int = 0
    #: Per-AA scores at selection time (fewest-live-blocks-first check).
    selected_scores: list[int] = field(default_factory=list)


def clean_best_aas(sim, group_index: int, n_aas: int) -> CleanReport:
    """Clean up to ``n_aas`` of the given RAID group's best AAs in one CP.

    Only mapped blocks move: an allocated block with its free still
    pending is left for the CP's boundary to free.  Stops early, before
    an AA whose live blocks no longer fit in the free space its tier has
    outside the AAs already checked out.
    """
    store = sim.store
    if group_index not in range(len(store.groups)) or n_aas < 0:
        raise CacheError(
            f"cannot clean {n_aas} AAs of RAID group {group_index}: the aggregate "
            f"has {len(store.groups)} RAID groups and the count must be >= 0"
        )
    g = store.groups[group_index]
    if g.cache is None:
        raise CacheError("segment cleaning requires the AA cache (it provides "
                         "the best-score AAs just in time)")
    report = CleanReport()

    # The copies stay on the group's tier.
    tier = store.labels[bisect_right(store.bases, g.offset) - 1]
    room = store.tier_usage()[tier]["free"]
    cleaned: list[int] = []
    live = [np.empty(0, dtype=np.int64)]
    for _ in range(n_aas):
        aa = g.cache.pop_best()
        if aa is None:
            break
        score = g.keeper.score(aa)
        blocks = np.concatenate(
            [g.metafile.bitmap.allocated_in_range(a, b) for a, b in g.topology.aa_extents(aa)]
        )
        # A checked-out AA's free blocks cannot take copies.
        room -= score
        if blocks.size > room:
            g.cache.push_back(aa)
            break
        room -= blocks.size
        report.selected_scores.append(int(score))
        report.aas_already_empty += int(blocks.size == 0)
        cleaned.append(aa)
        live.append(blocks + g.offset)

    # The reverse map: every (volume, virtual VBN) a live block backs.
    moved = np.concatenate(live)
    relocate: dict[str, np.ndarray] = {}
    for name, vol in sim.vols.items():
        virtual = np.flatnonzero(vol.mapped())
        relocate[name] = virtual[np.isin(vol.physical_of(virtual), moved)]
        report.blocks_moved += int(relocate[name].size)
    sim.engine.run_cp(CPBatch(relocate=relocate, relocate_to=tier))
    # The CP's boundary re-scored the emptied AAs; return what it left
    # checked out (the already-empty ones, whose scores did not change).
    for aa in cleaned:
        if aa in g.cache.checked_out:
            g.cache.push_back(aa)
    report.aas_cleaned = len(cleaned)
    return report
