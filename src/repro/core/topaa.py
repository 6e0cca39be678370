"""The TopAA metafile: persisting AA caches across reboot/failover.

"Rebuilding AA caches requires a linear walk of the bitmap metafiles
... this may take multiple seconds.  Instead, each WAFL file system
instance stores the AA cache structure in a TopAA metafile." (paper
section 3.4)

Two on-disk layouts, both reproduced here byte-for-byte in spirit:

* **RAID-aware** — one 4 KiB block holding the 512 best AAs and their
  scores (512 entries x 8 bytes = 4,096 bytes exactly).  This seeds the
  max-heap with high-quality AAs; client load "can be sustained for
  dozens of seconds using the seeded AAs while the max-heap is fully
  populated in the background".
* **RAID-agnostic** — two 4 KiB blocks into which the HBPS structure is
  embedded directly (see :meth:`repro.core.hbps.HBPS.to_pages`), kept
  pinned in the buffer cache, so "very little I/O and CPU is necessary
  to get the AA cache structure ready" after mount.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..common.constants import BLOCK_SIZE, TOPAA_RAID_AWARE_ENTRIES
from ..common.errors import CacheError, SerializationError
from .heap_cache import RAIDAwareAACache
from .hbps_cache import RAIDAgnosticAACache

__all__ = [
    "serialize_heap_seed",
    "deserialize_heap_seed",
    "seed_heap_cache",
    "serialize_hbps_cache",
    "load_hbps_cache",
    "seal_page",
    "unseal_page",
    "TOPAA_HEADER_BYTES",
    "PAGE_KIND_HEAP_SEED",
    "PAGE_KIND_HBPS",
    "PAGE_KIND_FS_IMAGE",
]

_SENTINEL = np.uint32(0xFFFFFFFF)

# ----------------------------------------------------------------------
# Sealed-page envelope: every persisted TopAA page carries a checksum
# header so a corrupt, truncated, or stale page is detected at mount
# instead of seeding garbage caches.  This models WAFL's per-block
# checksums (the BCS trailer / AZCS checksum blocks of section 3.2.4)
# applied to the TopAA metafile: the header rides in the block's
# checksum area, so the *modeled* read cost stays one 4 KiB block per
# RAID group and two per FlexVol.
# ----------------------------------------------------------------------

_PAGE_MAGIC = 0x41416F54  # "ToAA"
_PAGE_VERSION = 1
#: magic u32 | version u16 | kind u16 | num_aas u32 | payload_len u32 | crc32 u32
_PAGE_HEADER = struct.Struct("<IHHIII")
TOPAA_HEADER_BYTES = _PAGE_HEADER.size

PAGE_KIND_HEAP_SEED = 1
PAGE_KIND_HBPS = 2
#: Persisted per-FS metadata image: bitmap + FlexVol maps + logs.
#: (Kind 3 is retired; a persisted kind number is never reused.)
PAGE_KIND_FS_IMAGE = 4


def seal_page(payload: bytes, kind: int, num_aas: int) -> bytes:
    """Wrap a serialized TopAA payload with its checksum header.

    ``num_aas`` records the topology the page was exported for, so a
    page persisted before a grow/shrink (or for a different file
    system) is detected as stale rather than silently seeding a cache
    of the wrong shape.
    """
    header = _PAGE_HEADER.pack(
        _PAGE_MAGIC, _PAGE_VERSION, kind, num_aas, len(payload),
        zlib.crc32(payload),
    )
    return header + payload


def unseal_page(blob: bytes, kind: int, num_aas: int) -> bytes:
    """Verify and strip a sealed page's header, returning the payload.

    Raises :class:`SerializationError` whose message names the failure
    (``truncated``, ``bad-magic``, ``bad-version``, ``wrong-kind``,
    ``stale``, or ``bad-crc``) — the mount path uses these to decide a
    per-filesystem fallback to the bitmap walk.
    """
    if len(blob) < TOPAA_HEADER_BYTES:
        raise SerializationError("TopAA page truncated: header incomplete")
    magic, version, pkind, page_aas, payload_len, crc = _PAGE_HEADER.unpack_from(blob, 0)
    if magic != _PAGE_MAGIC:
        raise SerializationError("TopAA page bad-magic")
    if version != _PAGE_VERSION:
        raise SerializationError(f"TopAA page bad-version {version}")
    if pkind != kind:
        raise SerializationError(
            f"TopAA page wrong-kind: expected {kind}, found {pkind}"
        )
    payload = blob[TOPAA_HEADER_BYTES:]
    if len(payload) != payload_len:
        raise SerializationError(
            f"TopAA page truncated: {len(payload)} of {payload_len} payload bytes"
        )
    if zlib.crc32(payload) != crc:
        raise SerializationError("TopAA page bad-crc")
    if page_aas != num_aas:
        raise SerializationError(
            f"TopAA page stale: exported for {page_aas} AAs, file system has {num_aas}"
        )
    return payload


def serialize_heap_seed(
    scores: np.ndarray, max_entries: int = TOPAA_RAID_AWARE_ENTRIES
) -> bytes:
    """Serialize the ``max_entries`` best AAs into one 4 KiB block.

    ``scores`` is the authoritative per-AA score array of one RAID
    group.  Entries are ``(aa: u32, score: u32)`` pairs, best first;
    unused slots carry a sentinel AA id.
    """
    if max_entries * 8 > BLOCK_SIZE:
        raise SerializationError(
            f"{max_entries} entries x 8 bytes exceed one {BLOCK_SIZE}-byte block"
        )
    scores = np.asarray(scores)
    n = min(max_entries, scores.size)
    if n < scores.size:
        # argpartition: top-n without a full sort, then order best-first.
        top = np.argpartition(scores, -n)[-n:]
    else:
        top = np.arange(scores.size)
    top = top[np.argsort(scores[top])[::-1]]
    # Pad the whole block with sentinel pairs so short seeds (fewer
    # entries than capacity) terminate cleanly on deserialization.
    block = np.full(BLOCK_SIZE // 4, _SENTINEL, dtype=np.uint32)
    block[0 : 2 * n : 2] = top.astype(np.uint32)
    block[1 : 2 * n : 2] = scores[top].astype(np.uint32)
    return block.tobytes()


def _heap_seed_rows(block: bytes) -> np.ndarray:
    """:func:`serialize_heap_seed` output as ``(n, 2)`` int64
    ``(aa, score)`` rows, best first."""
    if len(block) != BLOCK_SIZE:
        raise SerializationError(f"TopAA block must be {BLOCK_SIZE} bytes, got {len(block)}")
    rows = np.frombuffer(block, dtype=np.uint32).reshape(-1, 2)
    end = rows[:, 0] == _SENTINEL
    return rows[: int(end.argmax()) if end.any() else len(rows)].astype(np.int64)


def deserialize_heap_seed(block: bytes) -> list[tuple[int, int]]:
    """Decode :func:`serialize_heap_seed` output into ``(aa, score)``
    pairs, best first."""
    return list(map(tuple, _heap_seed_rows(block).tolist()))


def seed_heap_cache(num_aas: int, block: bytes, *, aa_blocks: int) -> RAIDAwareAACache:
    """Build a seeded (partially populated) RAID-aware cache from a
    TopAA block, in one batch.  The caller is responsible for refilling
    it in the background (see :mod:`repro.fs.mount`).  AAs past
    ``num_aas`` are skipped; an AA named twice, or a score above the
    ``aa_blocks`` an AA holds, raises :class:`SerializationError`
    naming ``bad-structure``."""
    rows = _heap_seed_rows(block)
    rows = rows[rows[:, 0] < num_aas]
    if len(rows) and rows[:, 1].max() > aa_blocks:
        raise SerializationError(f"TopAA heap seed bad-structure: a score above {aa_blocks}")
    cache = RAIDAwareAACache(num_aas)
    cache.seeded = True
    try:
        cache.populate(rows)
    except CacheError as exc:
        raise SerializationError(f"TopAA heap seed bad-structure: {exc}") from exc
    return cache


def serialize_hbps_cache(cache: RAIDAgnosticAACache) -> bytes:
    """Persist a RAID-agnostic cache as its two TopAA blocks."""
    return cache.to_pages()


def load_hbps_cache(pages: bytes, num_aas: int) -> RAIDAgnosticAACache:
    """Reload a RAID-agnostic cache from its two TopAA blocks.

    The result is *seeded*: listed AAs are usable immediately at bin
    resolution; a background replenish restores exact state.  The pages
    persist the bin width; the list capacity is the paper's 1,000
    entries (a cache built away from it reloads through
    :meth:`RAIDAgnosticAACache.from_pages`).
    """
    return RAIDAgnosticAACache.from_pages(pages, num_aas)
