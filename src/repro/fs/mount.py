"""Mount and failover: TopAA-seeded versus full-rebuild cache builds.

"When an aggregate or FlexVol volume is mounted, write allocation
cannot begin until an AA is selected, which in turn requires that AA
caches be operational.  Rebuilding AA caches requires a linear walk of
the bitmap metafiles ... this may take multiple seconds.  Instead,
each WAFL file system instance stores the AA cache structure in a
TopAA metafile." (paper section 3.4)

This module implements both mount paths against a simulator whose
bitmaps represent the persisted state:

* :func:`export_topaa` captures the TopAA metafile image (one 4 KiB
  block per RAID-aware cache with the 512 best AAs; two blocks per
  RAID-agnostic cache embedding the HBPS).  Every page is *sealed*
  with a CRC32 checksum header (:func:`repro.core.topaa.seal_page`) so
  damage is detected at mount instead of seeding garbage.
* :func:`simulate_mount` rebuilds every AA cache either from the TopAA
  image (reading 1-2 blocks per file system) or by walking all bitmap
  metafile blocks, swaps the fresh caches into the simulator, and
  reports both measured wall time and modeled read I/O — the
  quantities behind Figure 10's "time for the first CP after boot".

  The mount is *self-healing*: a corrupt, truncated, stale, or missing
  TopAA page makes only that file system fall back to the bitmap walk
  (recorded in :attr:`MountReport.fallbacks`); transient read failures
  are retried with bounded backoff; and a walk that hits metafile
  damage RAID cannot reconstruct escalates to a scoped
  :func:`repro.fs.iron.repair` of exactly that file system.  A page
  that fails verification can never install a cache.
* :func:`background_rebuild` completes a seeded mount: it refills the
  heap caches and replenishes the HBPS caches with exact scores, as
  WAFL's background scan does while "client operations and CPs are
  sustained for dozens of seconds using the seeded AAs".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..common.errors import MediaError, SerializationError
from ..common.retry import RetryBudget, retry_with_backoff
from .filesystem import WaflSim

__all__ = ["TopAAImage", "MountReport", "export_topaa", "simulate_mount", "background_rebuild"]

#: Modeled time to read one 4 KiB metafile block at mount (random read
#: from an HDD/SSD pool amortized over readahead).
DEFAULT_METAFILE_READ_US = 250.0

#: Base backoff of a mount-walk retry: attempt ``k`` waits ``k`` times
#: this (four metafile-block reads).
MOUNT_RETRY_BACKOFF_US = 4 * DEFAULT_METAFILE_READ_US

#: Total transient-read retries budgeted for one recovery (shared by
#: the mount walk and the background rebuild) before the typed
#: :class:`~repro.common.errors.RecoveryExhaustedError` is raised.
DEFAULT_MOUNT_RETRIES = 3

_UNSEAL_REASONS = (
    "bad-magic", "bad-version", "wrong-kind", "bad-crc", "stale", "truncated", "bad-structure",
)


@dataclass
class TopAAImage:
    """Persisted TopAA metafile contents for one aggregate.

    Every entry is a sealed page: payload prefixed by the CRC32
    checksum header of :func:`repro.core.topaa.seal_page`.  The header
    models the block's per-block checksum area (BCS/AZCS), so the
    *modeled* read cost stays 1 block per RAID group and 2 per
    FlexVol/linear store.  Pages are filed by the owning space's
    ``where`` label (:meth:`put` / :meth:`page_for`).
    """

    #: One 4 KiB block per RAID group (512 best AAs each), by the
    #: aggregate-wide group index of its ``group:<i>`` label.
    group_blocks: list[bytes] = field(default_factory=list)
    #: Two 4 KiB blocks per FlexVol (embedded HBPS), by volume name.
    vol_pages: dict[str, bytes] = field(default_factory=dict)
    #: Two blocks per linear physical store, by its ``where`` label
    #: ("store", or "store:<tier>" inside a tiered aggregate).
    store_pages: dict[str, bytes] = field(default_factory=dict)

    @property
    def total_blocks(self) -> int:
        return len(self.group_blocks) + 2 * (len(self.vol_pages) + len(self.store_pages))

    def put(self, where: str, page: bytes) -> None:
        """File ``page`` under its space's label, replacing any page
        already there.  New groups must arrive in index order, as
        ``physical_instances`` yields them: any other index raises
        :class:`SerializationError`."""
        kind, _, key = where.partition(":")
        if kind == "group":
            gi = int(key)
            if not 0 <= gi <= len(self.group_blocks):
                raise SerializationError(
                    f"TopAA image: cannot file {where}; "
                    f"the next group is group:{len(self.group_blocks)}"
                )
            self.group_blocks[gi:gi + 1] = [page]  # replace, or append the next group
        elif kind == "vol":
            self.vol_pages[key] = page
        else:
            self.store_pages[where] = page

    def page_for(self, where: str) -> bytes | None:
        """The page filed under ``where``, or None when absent."""
        kind, _, key = where.partition(":")
        if kind == "group":
            gi = int(key)
            return self.group_blocks[gi] if gi < len(self.group_blocks) else None
        if kind == "vol":
            return self.vol_pages.get(key)
        return self.store_pages.get(where)


@dataclass
class MountReport:
    """Cost breakdown of one simulated mount."""

    used_topaa: bool = False
    #: 4 KiB blocks read to build the caches (TopAA blocks or the full
    #: bitmap metafile walk).
    blocks_read: int = 0
    #: Wall-clock seconds spent building caches (real work in this
    #: process: bitmap popcount walks vs page decoding).
    build_wall_s: float = 0.0
    #: Modeled read-I/O time for those blocks (plus retry backoff).
    modeled_read_us: float = 0.0
    #: Caches built (RAID groups + volumes + linear store).
    caches_built: int = 0
    #: File systems whose TopAA page was unusable, mapped to the reason
    #: ("missing-page", "bad-crc", "stale", "truncated", "bad-structure",
    #: ...); each fell back to its own bitmap walk.
    fallbacks: dict[str, str] = field(default_factory=dict)
    #: File systems whose bitmap walk hit unreconstructable damage and
    #: were repaired in place by a scoped Iron pass.
    repairs: list[str] = field(default_factory=list)
    #: Transient read failures absorbed by retry (mount walk phase).
    transient_retries: int = 0
    #: Modeled backoff time spent on those retries.
    retry_backoff_us: float = 0.0
    #: Transient retries absorbed by the background rebuild when it was
    #: handed this report (see :func:`background_rebuild`).
    rebuild_retries: int = 0
    #: Size of the shared recovery retry budget this mount drew from.
    retry_budget_limit: int = 0

    @property
    def total_retries(self) -> int:
        """All transient retries charged to the shared budget."""
        return self.transient_retries + self.rebuild_retries


def export_topaa(sim: WaflSim) -> TopAAImage:
    """Capture the TopAA metafile image of a running system.

    WAFL updates these blocks as part of normal CPs; capturing at an
    arbitrary CP boundary is therefore representative.  Pages are
    sealed with their checksum header and the exporting topology's AA
    count (stale detection).
    """
    image = TopAAImage()
    for fs in sim.spaces():
        page = fs.topaa_page()
        if page is not None:
            image.put(fs.where, page)
    return image


def _unseal_reason(exc: SerializationError) -> str:
    msg = str(exc)
    for token in _UNSEAL_REASONS:
        if token in msg:
            return token
    return "invalid"


def _walk_bitmap(
    sim: WaflSim,
    fs,
    report: MountReport,
    *,
    budget: RetryBudget,
) -> bool:
    """Charge one fault-guarded bitmap-metafile walk of ``fs``.

    Transient failures retry with linear backoff (charged to the
    report) from the recovery-wide ``budget``; damage RAID cannot
    reconstruct escalates to a scoped Iron repair of exactly this file
    system.  Returns True when Iron repaired (and rebuilt the cache of)
    the file system in place, so the caller must not install a cache of
    its own.
    """
    try:
        blocks, retries, spent_us = retry_with_backoff(
            fs.read_metafile,
            budget=budget,
            base_backoff_us=MOUNT_RETRY_BACKOFF_US,
            where=fs.where,
        )
    except MediaError:
        from .iron import repair as iron_repair

        iron_repair(sim, scope={fs.where})
        # The repair pass recomputed everything from the reference
        # maps — charge the walk it performed.
        report.blocks_read += fs.metafile.note_scan_read()
        report.repairs.append(fs.where)
        return True
    report.blocks_read += blocks
    report.transient_retries += retries
    report.retry_backoff_us += spent_us
    return False


def simulate_mount(
    sim: WaflSim,
    image: TopAAImage | None,
    *,
    budget: RetryBudget | None = None,
) -> MountReport:
    """Rebuild all AA caches as a mount would and install them.

    With ``image`` the TopAA path is taken (read 1 block per RAID
    group, 2 per volume); with ``None`` every bitmap metafile block is
    walked to recompute scores.  Only cache-backed stores/volumes are
    rebuilt (baseline policies have no mount cost).

    Every TopAA page is verified (CRC32, magic, version, kind, AA
    count, then the structure it decodes to) before anything is
    installed from it; any failure — including a file system present
    in the simulator but absent from the image — downgrades that one
    file system to the bitmap walk and is recorded in
    :attr:`MountReport.fallbacks`.  The walk itself is fault-guarded
    (see :func:`_walk_bitmap`).

    ``budget`` bounds transient-read retries for the *whole* recovery:
    pass the same :class:`~repro.common.retry.RetryBudget` here and to
    :func:`background_rebuild` and both phases draw from one pool (a
    fresh ``RetryBudget(DEFAULT_MOUNT_RETRIES)`` is created when
    omitted).
    """
    if budget is None:
        budget = RetryBudget(DEFAULT_MOUNT_RETRIES)
    report = MountReport(used_topaa=image is not None)
    report.retry_budget_limit = budget.limit
    # simlint: disable=F801 — perf_counter only fills
    # MountReport.build_wall_s, a wall-clock reporting field (fig10 table);
    # simulated state is driven purely by modeled metafile-read microseconds
    t0 = time.perf_counter()
    for fs in sim.spaces():
        if fs.cache is None and not fs.degraded_alloc:
            continue
        report.caches_built += 1
        if image is not None:
            blob = image.page_for(fs.where)
            if blob is None:
                report.fallbacks[fs.where] = "missing-page"
            else:
                try:
                    report.blocks_read += fs.adopt_topaa_page(blob)
                except SerializationError as exc:
                    report.fallbacks[fs.where] = _unseal_reason(exc)
                else:
                    continue
        if not _walk_bitmap(sim, fs, report, budget=budget):
            fs.rebuild_cache()
    # simlint: disable=F801 — stops the build_wall_s reporting clock started
    # above
    report.build_wall_s = time.perf_counter() - t0
    report.modeled_read_us = (
        report.blocks_read * DEFAULT_METAFILE_READ_US + report.retry_backoff_us
    )
    return report


def background_rebuild(
    sim: WaflSim,
    *,
    budget: RetryBudget | None = None,
    report: MountReport | None = None,
) -> dict[str, int]:
    """Complete a TopAA-seeded mount: refill the heap caches and
    replenish the HBPS caches with exact scores (the background bitmap
    walk, one per seeded space).  Returns counts of heap AAs the seeds
    did not name / HBPS caches refreshed.

    The walks go through each file system's fault-guarded
    ``read_metafile`` with bounded retries, so an injector's transient
    faults delay rather than kill the background scan.  Pass the
    ``budget`` used by :func:`simulate_mount` to bound the whole
    recovery by one retry pool, and its :class:`MountReport` to have
    the rebuild's retries counted (``rebuild_retries``).
    """
    if budget is None:
        budget = RetryBudget(DEFAULT_MOUNT_RETRIES)

    def _read(fs) -> None:
        _, retries, _ = retry_with_backoff(
            fs.read_metafile, budget=budget, base_backoff_us=0.0, where=fs.where
        )
        if report is not None:
            report.rebuild_retries += retries

    populated = 0
    refreshed = 0
    for fs in sim.spaces():
        if not fs.cache_seeded:
            continue
        _read(fs)
        heap_aas, hbps_caches = fs.complete_cache()
        populated += heap_aas
        refreshed += hbps_caches
    return {"heap_aas_populated": populated, "hbps_caches_refreshed": refreshed}
