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
module implements the quoted mechanism against the simulator: pop the
best AAs from a RAID group's cache, move their live blocks to fresh
physical locations through the normal write allocator (so the copies
land in other AAs, stripe-major), rewrite the affected FlexVol
container maps, and free the sources — leaving completely empty AAs
for the next CP to consume.

Cleaning costs real work that the report captures: blocks read and
rewritten (device I/O via the normal CP pricing path) and container-map
updates.  The ablation benchmark weighs that cost against the stripe
quality it buys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import CacheError

__all__ = ["CleanReport", "clean_best_aas"]


@dataclass
class CleanReport:
    """Outcome of one cleaning pass."""

    #: AAs fully emptied.
    aas_cleaned: int = 0
    #: Live blocks relocated (read + rewritten).
    blocks_moved: int = 0
    #: AAs skipped because they were already completely empty.
    aas_already_empty: int = 0
    #: Container-map entries rewritten.
    map_updates: int = 0
    #: Per-AA scores at selection time (fewest-live-blocks-first check).
    selected_scores: list[int] = field(default_factory=list)


def clean_best_aas(sim, group_index: int, n_aas: int) -> CleanReport:
    """Clean up to ``n_aas`` of the given RAID group's best AAs.

    Must be called between consistency points (the simulator's steady
    state after :meth:`repro.fs.cp.CPEngine.run_cp` returns).  The
    relocations are flushed through a store CP boundary so device costs
    and cache rebalancing happen exactly as for client writes.
    """
    store = sim.store
    if not hasattr(store, "groups"):
        raise CacheError("segment cleaning targets RAID stores")
    if group_index not in range(len(store.groups)) or n_aas < 0:
        raise CacheError(
            f"cannot clean {n_aas} AAs of RAID group {group_index}: the store "
            f"has groups 0..{len(store.groups) - 1} and the count must be >= 0"
        )
    g = store.groups[group_index]
    if g.cache is None:
        raise CacheError("segment cleaning requires the AA cache (it provides "
                         "the best-score AAs just in time)")
    if any(grp.delayed_frees.pending_count for grp in store.groups):
        # Pending frees reference allocated-but-unmapped blocks; cleaning
        # them would double-free.  CP boundaries drain the logs, so this
        # only trips if called mid-CP.
        raise CacheError("segment cleaning must run between consistency points")
    report = CleanReport()

    # Build the reverse map (physical -> (vol, virtual)) once per pass.
    vol_names: list[str] = []
    vol_virtuals: list[np.ndarray] = []
    vol_physicals: list[np.ndarray] = []
    for name, vol in sim.vols.items():
        mapped_v = np.flatnonzero(vol.mapped())
        vol_names.append(name)
        vol_virtuals.append(mapped_v)
        vol_physicals.append(vol.physical_of(mapped_v))

    cleaned: list[int] = []
    for _ in range(n_aas):
        aa = g.cache.pop_best()
        if aa is None:
            break
        score = g.keeper.score(aa)
        report.selected_scores.append(int(score))
        live_local: list[np.ndarray] = []
        for start, stop in g.topology.aa_extents(aa):
            live_local.append(g.metafile.bitmap.allocated_in_range(start, stop))
        live = np.concatenate(live_local)
        if live.size == 0:
            report.aas_already_empty += 1
            cleaned.append(aa)
            continue

        live_global = live + g.offset
        # Allocate destinations through the normal allocator; the source
        # AA is checked out, so copies land elsewhere.
        dest = store.allocate(int(live.size))
        if dest.size < live.size:
            # Out of space to relocate into: put everything back.
            store.log_free(dest)
            g.cache.push_back(aa)
            break
        report.blocks_moved += int(live.size)

        # Rewrite container maps: every (vol, virtual) pointing at a
        # moved physical block now points at its copy.
        order = np.argsort(live_global)
        sorted_src = live_global[order]
        sorted_dst = dest[order]
        for name, mapped_v, phys in zip(vol_names, vol_virtuals, vol_physicals):
            idx = np.searchsorted(sorted_src, phys)
            idx = np.clip(idx, 0, sorted_src.size - 1)
            hits = sorted_src[idx] == phys
            if not np.any(hits):
                continue
            vol = sim.vols[name]
            vol.remap(mapped_v[hits], sorted_dst[idx[hits]])
            phys[hits] = sorted_dst[idx[hits]]  # keep the pass's map fresh
            report.map_updates += int(hits.sum())

        # Free the sources (delayed, like any COW free).
        store.log_free(live_global)
        cleaned.append(aa)

    # Flush the relocation CP: prices device writes, applies the frees,
    # rebalances the caches (the cleaned AAs re-enter via their score
    # transitions; fully-empty ones at the maximum score).
    store.cp_boundary()
    # Return AAs whose scores did not change (already-empty ones).
    for aa in cleaned:
        if aa in g.cache.checked_out:
            g.cache.push_back(aa)
    report.aas_cleaned = len(cleaned)
    return report
