"""Per-layer microbenchmarks (ROADMAP item 1(c)).

Ten kernels on fixed seeded inputs, each reported as operations per
second of host time, so a regression in an integrated workload can be
localised to a structure without a profiler.  They run in the traced
pass of ``cache_scale`` only and gate nothing.

What one operation is:

========================================  =================================
``core.hbps.update_per_s``                one ``HBPS.update`` (bin move)
``core.hbps.pop_insert_per_s``            one ``pop_best`` + ``insert``
``core.hbps.rebuild_per_s``               one item through ``rebuild``
``core.heap_cache.apply_per_s``           one score change applied
``core.heap_cache.select_per_s``          one ``pop_best`` + ``push_back``
``bitmap.free_in_range_per_s``            one 32,768-bit range scanned
``bitmap.counts_per_chunk_per_s``         one 32,768-bit chunk counted
``bitmap.allocate_free_per_s``            one bit set and cleared again
``raid.analyze_blocks_per_s``             one written block classified
``devices.ssd.write_blocks_per_s``        one block through the FTL model
========================================  =================================
"""

from __future__ import annotations

import time

import numpy as np

from repro.bitmap.bitmap import Bitmap
from repro.bitmap.metafile import BitmapMetafile
from repro.core import HBPS, RAIDAwareAACache
from repro.devices.ssd import SSD
from repro.raid import RAIDGeometry
from repro.raid.parity import analyze_raid_writes

__all__ = ["run_kernels"]

perf = time.perf_counter

MAX_SCORE = 32_768
ITEMS = 2**17
CHUNK = 32_768


def _best_rate(ops: int, body, repeats: int = 3) -> float:
    """ops / best wall over a few repeats (kernels are short, so the
    minimum is the steadiest estimate of what the code costs)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf()
        body()
        best = min(best, perf() - t0)
    return ops / best


def _hbps(scores: np.ndarray) -> HBPS:
    h = HBPS(MAX_SCORE)
    h.rebuild((i, int(s)) for i, s in enumerate(scores))
    return h


def run_kernels() -> dict[str, float]:
    rng = np.random.default_rng(20180813)
    out: dict[str, float] = {}
    scores = rng.integers(0, MAX_SCORE + 1, size=ITEMS)

    # -- HBPS ------------------------------------------------------------
    h = _hbps(scores)
    local = scores.copy()
    items = rng.integers(0, ITEMS, size=20_000).tolist()
    news = rng.integers(0, MAX_SCORE + 1, size=20_000).tolist()

    def hbps_update() -> None:
        for item, new in zip(items, news):
            if h.is_listed(item):
                continue
            h.update(item, int(local[item]), new)
            local[item] = new

    out["core.hbps.update_per_s"] = _best_rate(len(items), hbps_update)

    def hbps_pop_insert() -> None:
        for _ in range(20_000):
            item, b = h.pop_best()
            h.insert(item, h.bin_bounds(b)[0])

    out["core.hbps.pop_insert_per_s"] = _best_rate(20_000, hbps_pop_insert)
    out["core.hbps.rebuild_per_s"] = _best_rate(ITEMS, lambda: _hbps(scores), repeats=2)

    # -- heap cache ------------------------------------------------------
    heap = RAIDAwareAACache(2**16, scores[: 2**16])
    heap_scores = scores[: 2**16].copy()
    aas = rng.permutation(2**16)[:20_000]
    heap_news = rng.integers(0, MAX_SCORE + 1, size=aas.size)

    def heap_apply() -> None:
        changes = list(zip(aas.tolist(), heap_scores[aas].tolist(), heap_news.tolist()))
        heap.apply_changes(changes)
        heap_scores[aas] = heap_news

    out["core.heap_cache.apply_per_s"] = _best_rate(aas.size, heap_apply)

    def heap_select() -> None:
        for _ in range(20_000):
            heap.push_back(heap.pop_best())

    out["core.heap_cache.select_per_s"] = _best_rate(20_000, heap_select)

    # -- bitmap ----------------------------------------------------------
    nbits = 2**22
    bm = Bitmap(nbits, check=False)
    bm.allocate(np.flatnonzero(rng.random(nbits) < 0.55))
    starts = (rng.integers(0, nbits // CHUNK, size=128) * CHUNK).tolist()

    def free_in_range() -> None:
        for s in starts:
            bm.free_in_range(s, s + CHUNK)

    out["bitmap.free_in_range_per_s"] = _best_rate(len(starts), free_in_range)
    out["bitmap.counts_per_chunk_per_s"] = _best_rate(
        nbits // CHUNK, lambda: bm.counts_per_chunk(CHUNK)
    )
    mf = BitmapMetafile(nbits, check=False)
    vbns = np.sort(rng.permutation(nbits)[:65_536])

    def allocate_free() -> None:
        mf.allocate(vbns)
        mf.free(vbns)

    out["bitmap.allocate_free_per_s"] = _best_rate(vbns.size, allocate_free)

    # -- RAID write pricing and the SSD model ----------------------------
    geometry = RAIDGeometry(4, 1, 131_072)
    writes = rng.permutation(geometry.data_blocks)[:16_384]
    out["raid.analyze_blocks_per_s"] = _best_rate(
        writes.size, lambda: analyze_raid_writes(geometry, writes)
    )
    ssd = SSD(131_072)
    batches = [np.sort(rng.permutation(131_072)[:4096]) for _ in range(8)]

    def ssd_write() -> None:
        for dbns in batches:
            ssd.write_blocks(dbns)

    out["devices.ssd.write_blocks_per_s"] = _best_rate(8 * 4096, ssd_write)
    return out
