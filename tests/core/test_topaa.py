"""Unit tests for TopAA metafile (de)serialization (paper section 3.4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common import BLOCK_SIZE, SerializationError, TOPAA_RAID_AWARE_ENTRIES
from repro.core import (
    RAIDAgnosticAACache,
    deserialize_heap_seed,
    load_hbps_cache,
    seed_heap_cache,
    serialize_heap_seed,
    serialize_hbps_cache,
)


class TestHeapSeed:
    def test_block_is_4kib(self):
        blk = serialize_heap_seed(np.arange(100))
        assert len(blk) == BLOCK_SIZE

    def test_best_first_order(self):
        scores = np.array([5, 50, 25, 75])
        pairs = deserialize_heap_seed(serialize_heap_seed(scores))
        assert pairs == [(3, 75), (1, 50), (2, 25), (0, 5)]

    def test_caps_at_512_entries(self):
        scores = np.arange(2000)
        pairs = deserialize_heap_seed(serialize_heap_seed(scores))
        assert len(pairs) == TOPAA_RAID_AWARE_ENTRIES
        # The 512 *best* AAs made it in.
        assert min(s for _, s in pairs) == 2000 - 512

    def test_fewer_aas_than_capacity(self):
        pairs = deserialize_heap_seed(serialize_heap_seed(np.array([7])))
        assert pairs == [(0, 7)]

    def test_bad_block_size_rejected(self):
        with pytest.raises(SerializationError):
            deserialize_heap_seed(b"\x00" * 100)

    def test_too_many_entries_rejected(self):
        with pytest.raises(SerializationError):
            serialize_heap_seed(np.arange(10), max_entries=1024)

    def test_seed_heap_cache(self):
        scores = np.arange(1000)
        cache = seed_heap_cache(1000, serialize_heap_seed(scores), aa_blocks=1000)
        assert cache.known_count == 512
        assert not cache.fully_populated
        assert cache.pop_best() == 999

    def test_seed_ignores_out_of_range_aas(self):
        """A TopAA block from a larger group (e.g. before shrink) must
        not corrupt a smaller cache."""
        blk = serialize_heap_seed(np.arange(1000))
        cache = seed_heap_cache(600, blk, aa_blocks=1000)
        assert cache.known_count <= 512
        best = cache.pop_best()
        assert best is not None and best < 600


class TestHBPSPages:
    def test_roundtrip(self):
        scores = np.arange(0, 32768, 64)
        cache = RAIDAgnosticAACache(scores.size, 32768, scores)
        pages = serialize_hbps_cache(cache)
        assert len(pages) == 2 * BLOCK_SIZE
        loaded = load_hbps_cache(pages, scores.size)
        assert loaded.seeded
        assert loaded.hbps.total_count == scores.size
        aa = loaded.pop_best()
        assert scores[aa] >= scores.max() - 1024
