"""Shadow vs committed metadata images and the recovery pipeline.

WAFL never updates file-system metadata in place: a consistency point
writes a complete *shadow* image of every dirtied metadata block and
atomically switches the superblock to it when done (paper section 2.1).
A crash at any instant therefore leaves two candidate images on disk:

* the **committed** image — the one the superblock points at, complete
  and self-consistent by construction;
* the **shadow** image — the in-flight CP's blocks, possibly *torn*:
  the device completed only a leading run of 512-byte sectors of any
  page that was mid-write when power dropped.

This module models both sides.  :func:`capture_image` serializes every
file-system instance (bitmap metafile bytes, FlexVol ``l2v``/``v2p``
maps, snapshot pins, pending delayed frees) into sealed pages — the
same CRC32 envelope TopAA pages use — plus the TopAA image itself,
versioned by CP index.  :func:`tear_page` produces the mid-write state
of a page at device-sector granularity.  :meth:`PersistenceModel.
recover` runs the recovery pipeline: verify the shadow (detecting torn
pages as typed :class:`~repro.common.errors.TornWriteError`), discard
it — the superblock switch never happened, so even an intact shadow is
orphaned — restore the committed image, and remount through the real
:func:`repro.fs.mount.simulate_mount` path with one shared retry
budget.

A model attaches to its sim's engine, whose ``run_cp`` commits it right
after the superblock switch: every completed CP is the image a later
crash recovers to, and no caller has to remember to commit.

One deliberate modeling choice: the TopAA metafile is treated as
advisory seed data updated *in place* during the CP boundary, outside
the shadow/commit protocol.  Mount verifies every TopAA page and falls
back to the bitmap walk per file system, so a torn TopAA page costs
time, never correctness — which is exactly why the recovery sweep uses
torn TopAA pages to exercise the sealed-page fallback path.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from ..common.errors import MountError, SerializationError, TornWriteError
from ..common.retry import RetryBudget
from ..common.rng import make_rng
from ..core.delayed_frees import DelayedFreeLog
from ..core.topaa import PAGE_KIND_FS_IMAGE, seal_page, unseal_page
from ..faults.recovery import instances
from ..fs.filesystem import WaflSim
from ..fs.flexvol import FlexVol
from ..fs.iron import map_counts
from ..fs.mount import (
    DEFAULT_MOUNT_RETRIES,
    MountReport,
    TopAAImage,
    background_rebuild,
    export_topaa,
    simulate_mount,
)

__all__ = [
    "SECTOR_BYTES",
    "FSState",
    "CommittedImage",
    "RecoveryReport",
    "PersistenceModel",
    "serialize_fs",
    "deserialize_fs",
    "capture_image",
    "tear_page",
]

#: Device sector size: the atomic write unit.  A crash mid-page leaves
#: a leading whole number of sectors new and the rest old.
SECTOR_BYTES = 512

#: nblocks u64 | free_count u64 | pending_count u64 | n_snapshots u32 | flags u32
_IMG_HEADER = struct.Struct("<QQQII")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_FLAG_HAS_MAPS = 1


# ----------------------------------------------------------------------
# Per-instance serialization
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FSState:
    """Deserialized persisted state of one file-system instance."""

    nblocks: int
    free_count: int
    bitmap_bytes: bytes
    #: Sorted VBNs logged as delayed frees but not yet applied.
    pending: np.ndarray
    #: FlexVol maps; ``None`` for physical stores / RAID groups.
    l2v: np.ndarray | None = None
    v2p: np.ndarray | None = None
    #: Snapshot pins, sorted by name.
    snapshots: tuple[tuple[str, np.ndarray], ...] = ()


def serialize_fs(fs) -> bytes:
    """Serialize one instance's *file-system* state (not measurement
    counters) into a deterministic byte payload.

    Captures exactly what survives a crash: the allocation bitmap, the
    pending delayed-free log, and — for FlexVols — the ``l2v``/``v2p``
    maps and snapshot pins.  Monotonic I/O counters are measurement
    state and deliberately excluded, so a recovered instance
    re-serializes byte-identically to the committed page no matter how
    much I/O the recovery itself performed.
    """
    # Sync the allocator's pending-span batch into the bitmap first: a
    # mid-CP capture must reflect every block already handed out, not
    # the batching cursor.
    fs.allocator.flush_pending()
    mf = fs.metafile
    pending = fs.delayed_frees.pending_vbns()
    is_vol = isinstance(fs, FlexVol)
    flags = _FLAG_HAS_MAPS if is_vol else 0
    n_snaps = len(fs.snapshots) if is_vol else 0
    parts = [
        _IMG_HEADER.pack(mf.nblocks, mf.free_count, pending.size, n_snaps, flags),
        mf.to_bytes(),
        np.ascontiguousarray(pending, dtype="<i8").tobytes(),
    ]
    if is_vol:
        parts.append(_U64.pack(fs.l2v.size))
        parts.append(np.ascontiguousarray(fs.l2v, dtype="<i8").tobytes())
        v2p, populated = np.full(fs.nblocks, -1, dtype="<i8"), fs.mapped()
        v2p[populated] = fs.physical_of(populated)
        parts.append(_U64.pack(v2p.size))
        parts.append(v2p.tobytes())
        for name in sorted(fs.snapshots):
            blob = name.encode("utf-8")
            held = np.ascontiguousarray(fs.snapshots[name], dtype="<i8")
            parts.append(_U32.pack(len(blob)))
            parts.append(blob)
            parts.append(_U64.pack(held.size))
            parts.append(held.tobytes())
    return b"".join(parts)


class _Cursor:
    """Bounds-checked reader over a payload; every overrun is a typed
    :class:`SerializationError`, never silently-truncated garbage."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise SerializationError(
                f"fs image truncated reading {what}: need {n} bytes at offset "
                f"{self.pos}, have {len(self.data) - self.pos}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return _U64.unpack(self.take(8, what))[0]

    def i64_array(self, count: int, what: str) -> np.ndarray:
        raw = self.take(count * 8, what)
        return np.frombuffer(raw, dtype="<i8").astype(np.int64)


def deserialize_fs(payload: bytes) -> FSState:
    """Parse :func:`serialize_fs` output, validating every length and
    value range.  Raises :class:`SerializationError` on any structural
    damage (out-of-range VBN, truncation, trailing bytes)."""
    cur = _Cursor(payload)
    nblocks, free_count, pending_count, n_snaps, flags = _IMG_HEADER.unpack(
        cur.take(_IMG_HEADER.size, "header")
    )
    if nblocks <= 0 or nblocks % 8:
        raise SerializationError(f"fs image: bad nblocks {nblocks}")
    if free_count > nblocks:
        raise SerializationError(
            f"fs image: free_count {free_count} exceeds nblocks {nblocks}"
        )
    bitmap_bytes = cur.take(nblocks // 8, "bitmap")
    allocated = int(
        np.bitwise_count(np.frombuffer(bitmap_bytes, dtype=np.uint8)).sum(dtype=np.int64)
    )
    if nblocks - allocated != free_count:
        raise SerializationError(
            f"fs image: bitmap popcount {allocated} disagrees with recorded "
            f"free_count {free_count} (nblocks {nblocks})"
        )
    pending = cur.i64_array(pending_count, "pending delayed frees")
    if pending.size and (pending.min() < 0 or pending.max() >= nblocks):
        raise SerializationError("fs image: pending delayed-free VBN out of range")
    l2v = v2p = None
    snapshots: list[tuple[str, np.ndarray]] = []
    if flags & _FLAG_HAS_MAPS:
        l2v = cur.i64_array(cur.u64("l2v size"), "l2v")
        if l2v.size and (l2v.min() < -1 or l2v.max() >= nblocks):
            raise SerializationError("fs image: l2v entry out of range")
        v2p = cur.i64_array(cur.u64("v2p size"), "v2p")
        if v2p.size != nblocks:
            raise SerializationError(
                f"fs image: v2p has {v2p.size} entries, expected {nblocks}"
            )
        if v2p.size and v2p.min() < -1:
            raise SerializationError("fs image: v2p entry out of range")
        for _ in range(n_snaps):
            name = cur.take(cur.u32("snapshot name length"), "snapshot name").decode(
                "utf-8", errors="strict"
            )
            held = cur.i64_array(cur.u64("snapshot size"), f"snapshot {name!r}")
            if held.size and (held.min() < 0 or held.max() >= nblocks):
                raise SerializationError(
                    f"fs image: snapshot {name!r} VBN out of range"
                )
            snapshots.append((name, held))
    elif n_snaps:
        raise SerializationError("fs image: snapshots recorded without maps")
    if cur.pos != len(payload):
        raise SerializationError(
            f"fs image: {len(payload) - cur.pos} trailing bytes after content"
        )
    return FSState(
        nblocks=nblocks,
        free_count=free_count,
        bitmap_bytes=bitmap_bytes,
        pending=pending,
        l2v=l2v,
        v2p=v2p,
        snapshots=tuple(snapshots),
    )


# ----------------------------------------------------------------------
# Whole-aggregate images
# ----------------------------------------------------------------------
@dataclass
class CommittedImage:
    """One CP's complete persisted metadata image."""

    #: CP index this image commits (``engine.cp_index`` at capture).
    cp_index: int
    #: Sealed per-instance pages by ``where`` label.
    pages: dict[str, bytes] = field(default_factory=dict)
    #: The TopAA metafile image captured at the same instant.
    topaa: TopAAImage = field(default_factory=TopAAImage)

    def digest(self) -> str:
        """Deterministic content hash (same seed => same hex digest)."""
        h = hashlib.sha256()
        h.update(_U64.pack(self.cp_index))
        for where in sorted(self.pages):
            h.update(where.encode("utf-8"))
            h.update(self.pages[where])
        for blob in self.topaa.group_blocks:
            h.update(blob)
        for name in sorted(self.topaa.vol_pages):
            h.update(name.encode("utf-8"))
            h.update(self.topaa.vol_pages[name])
        # Unlabelled, so a single-store image hashes as it always has.
        for where in sorted(self.topaa.store_pages):
            h.update(self.topaa.store_pages[where])
        return h.hexdigest()


def capture_image(sim: WaflSim, *, cp_index: int | None = None) -> CommittedImage:
    """Serialize every file-system instance plus the TopAA metafile."""
    pages = {
        where: seal_page(serialize_fs(fs), PAGE_KIND_FS_IMAGE, fs.topology.num_aas)
        for where, fs in instances(sim).items()
    }
    return CommittedImage(
        cp_index=sim.engine.cp_index if cp_index is None else cp_index,
        pages=pages,
        topaa=export_topaa(sim),
    )


def tear_page(
    new_page: bytes, old_page: bytes | None, rng: np.random.Generator
) -> bytes:
    """Mid-write state of ``new_page`` at device-sector granularity.

    A seeded-random number of leading :data:`SECTOR_BYTES` sectors
    carry the new bytes; the tail still holds the old page's bytes at
    those offsets (zeros where the old page was shorter).  Cutting at
    every sector — including 0 (write never started) and all (write
    completed) — keeps the full spectrum of torn states reachable.
    """
    n_sectors = -(-len(new_page) // SECTOR_BYTES)
    cut = int(rng.integers(0, n_sectors + 1)) * SECTOR_BYTES
    if cut >= len(new_page):
        return new_page
    old = old_page if old_page is not None else b""
    tail = old[cut : len(new_page)]
    tail += b"\x00" * (len(new_page) - cut - len(tail))
    return new_page[:cut] + tail


def _tear_topaa(
    shadow: TopAAImage, committed: TopAAImage, rng: np.random.Generator
) -> TopAAImage:
    """Tear every TopAA page of the in-flight image against the old."""
    old_groups = committed.group_blocks
    return TopAAImage(
        group_blocks=[
            tear_page(blob, old_groups[i] if i < len(old_groups) else None, rng)
            for i, blob in enumerate(shadow.group_blocks)
        ],
        vol_pages={
            name: tear_page(blob, committed.vol_pages.get(name), rng)
            for name, blob in sorted(shadow.vol_pages.items())
        },
        store_pages={
            where: tear_page(blob, committed.store_pages.get(where), rng)
            for where, blob in sorted(shadow.store_pages.items())
        },
    )


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
@dataclass
class RecoveryReport:
    """What one recovery did and what it cost."""

    #: CP index of the image recovered to (the last committed CP).
    cp_index: int = -1
    #: Shadow pages that failed verification (detected torn writes).
    torn_pages: list[str] = field(default_factory=list)
    #: True when every shadow page verified (crash landed outside the
    #: write window, or every page's write had completed); the shadow
    #: is discarded regardless — the superblock switch never happened.
    shadow_intact: bool = False
    #: Instances restored from committed pages.
    restored: list[str] = field(default_factory=list)
    #: The remount's cost/fallback report (shared retry budget).
    mount: MountReport = field(default_factory=MountReport)
    #: Background-rebuild counts completing the seeded mount.
    rebuild: dict[str, int] = field(default_factory=dict)

    @property
    def modeled_recovery_us(self) -> float:
        """Modeled time from crash to allocatable caches."""
        return self.mount.modeled_read_us


class PersistenceModel:
    """Shadow vs committed metadata images, committed by ``sim.engine``
    after every CP (the model attaches itself on construction).

    The committed image is only ever replaced through :meth:`commit`:
    :attr:`committed` is a read-only property, so ``model.committed = x``
    raises ``AttributeError`` from anywhere — nothing can silently move
    the state a crash recovers to.
    """

    def __init__(self, sim: WaflSim, *, seed: int | None = 0) -> None:
        self.sim = sim
        self._rng = make_rng(seed)
        self._committed = capture_image(sim)
        sim.engine.persistence = self
        #: In-flight image of a crashed CP (set by :meth:`capture_shadow`).
        self.shadow: CommittedImage | None = None
        #: Torn TopAA image paired with the shadow (in-place writes).
        self.shadow_topaa: TopAAImage | None = None

    # -- image lifecycle ----------------------------------------------
    @property
    def committed(self) -> CommittedImage:
        """The image a crash recovers to (the last committed CP)."""
        return self._committed

    def commit(self) -> None:
        """Atomic superblock switch: the shadow becomes the committed
        image.  The attached engine calls it once per CP, before trims."""
        self._committed = capture_image(self.sim)
        self.shadow = None
        self.shadow_topaa = None

    def capture_shadow(self, crashed_sim: WaflSim) -> CommittedImage:
        """Capture the in-flight image of a CP that crashed inside its
        write window, torn at device-sector granularity against the
        committed copy.  The TopAA image is torn too (in-place update),
        and becomes the image the remount will verify page by page.
        """
        shadow = capture_image(
            crashed_sim, cp_index=self.committed.cp_index + 1
        )
        committed = self.committed
        torn_pages = {
            where: tear_page(page, committed.pages.get(where), self._rng)
            for where, page in sorted(shadow.pages.items())
        }
        self.shadow = CommittedImage(
            cp_index=shadow.cp_index, pages=torn_pages, topaa=shadow.topaa
        )
        self.shadow_topaa = _tear_topaa(shadow.topaa, committed.topaa, self._rng)
        return self.shadow

    # -- recovery ------------------------------------------------------
    def recover(
        self,
        sim: WaflSim | None = None,
        *,
        budget: RetryBudget | None = None,
    ) -> RecoveryReport:
        """Recover ``sim`` (default: the model's sim) to the last
        committed CP through the real mount path.

        1. Verify every shadow page; checksum failures are recorded as
           detected torn writes.  The shadow is then discarded no
           matter what: a crash anywhere inside ``run_cp`` means the
           superblock switch never happened, so even a fully intact
           shadow image is orphaned.
        2. Restore every instance from its committed page (bitmap,
           maps, snapshot pins, pending delayed frees), then TRIM every
           free block on each group's live SSDs.
        3. Remount via :func:`simulate_mount` using the TopAA image
           that survives the crash — the torn in-place pages for a
           write-window crash, the committed ones otherwise — so torn
           TopAA pages exercise the sealed-page fallback and bitmap
           walk; then :func:`background_rebuild`.  Both phases share
           one bounded :class:`RetryBudget`.
        """
        target = self.sim if sim is None else sim
        report = RecoveryReport(cp_index=self.committed.cp_index)
        by_where = instances(target)
        if self.shadow is not None:
            for where in sorted(self.shadow.pages):
                fs = by_where.get(where)
                if fs is None:
                    continue
                try:
                    unseal_page(
                        self.shadow.pages[where],
                        PAGE_KIND_FS_IMAGE,
                        fs.topology.num_aas,
                    )
                except SerializationError:
                    report.torn_pages.append(where)
            report.shadow_intact = not report.torn_pages
        # Restore the committed image.  A committed page that fails
        # verification is unrecoverable for FlexVols (maps are primary
        # state) — surface it as a typed MountError rather than
        # continuing with garbage.
        states: dict[str, FSState] = {}
        for where, fs in by_where.items():
            page = self.committed.pages.get(where)
            if page is None:
                raise MountError(
                    f"recovery: no committed page for {where}; the committed "
                    f"image does not cover this instance"
                )
            try:
                payload = unseal_page(page, PAGE_KIND_FS_IMAGE, fs.topology.num_aas)
            except SerializationError as exc:
                raise TornWriteError(
                    f"recovery: committed page for {where} failed "
                    f"verification: {exc}"
                ) from exc
            states[where] = deserialize_fs(payload)
        _check_committed_maps(states, target.store.nblocks)
        for where, fs in by_where.items():
            _restore_fs(fs, states[where], where)
            report.restored.append(where)
        # What the lost CP wrote is free in the restored bitmaps but still
        # valid on its SSDs: no committed image references it, so TRIM
        # every free block, uncharged like a mount-time fstrim.
        for g in target.store.groups:
            g.trim(g.metafile.bitmap.free_in_range(0, g.metafile.bitmap.nblocks))
        # Remount through the real path with one shared retry budget.
        if budget is None:
            budget = RetryBudget(DEFAULT_MOUNT_RETRIES)
        topaa = (
            self.shadow_topaa if self.shadow_topaa is not None else self.committed.topaa
        )
        report.mount = simulate_mount(target, topaa, budget=budget)
        report.rebuild = background_rebuild(
            target, budget=budget, report=report.mount
        )
        return report


def _check_committed_maps(states: dict[str, FSState], store_nblocks: int) -> None:
    """A page knows only its own space: its ``v2p`` must map into the
    store's and populate exactly what its ``l2v`` maps or a snapshot
    pins.  Across the pages, no two entries may name one physical VBN."""
    owned, mapped = np.zeros(store_nblocks, dtype=bool), 0
    for where, st in states.items():
        if st.v2p is None:
            continue
        if st.v2p.max() >= store_nblocks:
            raise SerializationError(
                f"recovery: committed v2p for {where} maps to physical VBN "
                f"{int(st.v2p.max())}, outside the store's [0, {store_nblocks})")
        phys = st.v2p[st.v2p >= 0]
        owned[phys] = True
        mapped += phys.size
        pinned = np.concatenate([held for _, held in st.snapshots]) if st.snapshots else None
        _, _, stale, holes = map_counts(st.l2v, pinned, st.v2p >= 0)
        if stale or holes:
            raise SerializationError(
                f"recovery: committed v2p for {where} has {stale} stale entries "
                f"and {holes} referenced holes")
    if extra := mapped - int(np.count_nonzero(owned)):
        raise SerializationError(
            f"recovery: committed v2p maps give physical VBNs {extra} extra owners")


def _restore_fs(fs, st: FSState, where: str) -> None:
    """Install a deserialized committed state into a live instance."""
    if fs.metafile.nblocks != st.nblocks:
        raise SerializationError(
            f"recovery: committed page for {where} covers {st.nblocks} blocks, "
            f"instance has {fs.metafile.nblocks}"
        )
    fs.metafile.load_bytes(st.bitmap_bytes)
    log = DelayedFreeLog(bits_per_block=fs.delayed_frees.bits_per_block)
    if st.pending.size:
        log.add(st.pending)
    fs.delayed_frees = log
    if st.l2v is not None:
        if fs.l2v.size != st.l2v.size:
            raise SerializationError(
                f"recovery: committed l2v for {where} has {st.l2v.size} entries, "
                f"instance has {fs.l2v.size}"
            )
        fs.restore_maps(st.l2v, st.v2p, st.snapshots)
