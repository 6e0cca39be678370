"""Unit tests for the write allocator (paper sections 3.1, 3.3.1, 4.2)."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.bitmap import BitmapMetafile
from repro.core import (
    AggregateAllocator,
    CacheSource,
    LinearAATopology,
    LinearAllocator,
    RAIDAgnosticAACache,
    RAIDAwareAACache,
    RAIDGroupAllocator,
    RandomSource,
    ScoreKeeper,
    StripeAATopology,
)
from repro.raid import RAIDGeometry, analyze_raid_writes
from ..conftest import assert_scores_match


def make_linear(nblocks=4096, per_aa=512):
    topo = LinearAATopology(nblocks, per_aa)
    mf = BitmapMetafile(nblocks)
    keeper = ScoreKeeper(topo, mf.bitmap)
    cache = RAIDAgnosticAACache(topo.num_aas, topo.aa_blocks, keeper.scores)
    src = CacheSource(cache, lambda: topo.scores_from_bitmap(mf.bitmap))
    return LinearAllocator(topo, mf, src, keeper), topo, mf, keeper, cache


def make_raid(ndata=3, blocks_per_disk=1024, stripes_per_aa=128, offset=0):
    g = RAIDGeometry(ndata, 1, blocks_per_disk)
    topo = StripeAATopology(g, stripes_per_aa)
    mf = BitmapMetafile(g.data_blocks)
    keeper = ScoreKeeper(topo, mf.bitmap)
    cache = RAIDAwareAACache(topo.num_aas, keeper.scores)
    alloc = RAIDGroupAllocator(topo, mf, CacheSource(cache), keeper, store_offset=offset)
    return alloc, topo, mf, keeper, cache


class TestLinearAllocator:
    def test_sequential_within_aa(self):
        alloc, topo, mf, keeper, _ = make_linear()
        v = alloc.allocate(100)
        assert v.size == 100
        assert np.all(np.diff(v) == 1)
        assert len(np.unique(topo.aa_of_vbn(v))) == 1

    def test_spans_aas_when_needed(self):
        alloc, topo, *_ = make_linear()
        v = alloc.allocate(600)  # AA holds 512
        assert v.size == 600
        assert len(np.unique(topo.aa_of_vbn(v))) == 2

    def test_exhausts_space_gracefully(self):
        alloc, *_ = make_linear(nblocks=1024, per_aa=512)
        v = alloc.allocate(2000)
        assert v.size == 1024
        assert alloc.allocate(10).size == 0

    def test_bitmap_and_keeper_updated(self):
        alloc, topo, mf, keeper, _ = make_linear()
        v = alloc.allocate(100)
        # Bitmap updates are pending-span batched; the CP boundary is a
        # synchronization point.
        alloc.cp_flush()
        assert mf.bitmap.test(v).all()
        assert_scores_match(keeper, mf.bitmap)

    def test_flush_pending_syncs_bitmap(self):
        alloc, topo, mf, keeper, _ = make_linear()
        v = alloc.allocate(100)
        alloc.flush_pending()
        assert mf.bitmap.test(v).all()
        # Idempotent: a second flush changes nothing.
        before = mf.bitmap.allocated_count
        alloc.flush_pending()
        assert mf.bitmap.allocated_count == before

    def test_store_offset_applied(self):
        topo = LinearAATopology(1024, 512)
        mf = BitmapMetafile(1024)
        keeper = ScoreKeeper(topo, mf.bitmap)
        cache = RAIDAgnosticAACache(2, 512, keeper.scores)
        alloc = LinearAllocator(topo, mf, CacheSource(cache), keeper, store_offset=10_000)
        v = alloc.allocate(5)
        assert (v >= 10_000).all()
        # The metafile tracks local VBNs.
        alloc.flush_pending()
        assert mf.bitmap.allocated_count == 5

    def test_selected_scores_recorded(self):
        alloc, *_ = make_linear()
        alloc.allocate(10)
        assert alloc.selected_aa_scores == [512]

    def test_current_aa_held_across_cps(self):
        """The allocator keeps filling its AA across CP boundaries
        (section 3.1); the cache keeps it checked out."""
        alloc, topo, mf, keeper, cache = make_linear()
        v1 = alloc.allocate(10)
        aa = alloc.current_aa
        alloc.cp_flush()
        assert alloc.current_aa == aa
        assert aa in cache.checked_out
        v2 = alloc.allocate(10)
        # Sequential continuation within the same AA.
        assert v2[0] == v1[-1] + 1

    def test_explicit_release_returns_aa(self):
        alloc, topo, mf, keeper, cache = make_linear()
        alloc.allocate(10)
        aa = alloc.current_aa
        alloc.cp_flush()
        alloc.release()
        alloc.cp_flush()
        assert cache.checked_out == frozenset()
        assert alloc.current_aa is None

    def test_span_counter_tracks_density(self):
        alloc, topo, mf, keeper, _ = make_linear()
        # Pre-fragment every AA: every other block allocated, so any
        # selected AA is 50% dense.
        taken = np.arange(0, 4096, 2)
        mf.allocate(taken)
        keeper.recompute(mf.bitmap)
        v = alloc.allocate(50)
        # 50 blocks at 50% density span ~100 VBNs of bitmap.
        assert alloc.spanned_blocks >= 90


def take_stripes(alloc, max_stripes, max_blocks):
    """``take_stripe_chunks`` concatenated (what the aggregate loop does
    once per ``allocate``)."""
    out: list[np.ndarray] = []
    alloc.take_stripe_chunks(out, max_stripes, max_blocks)
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


class TestRAIDGroupAllocator:
    def test_full_stripes_on_empty_aa(self):
        alloc, topo, mf, keeper, _ = make_raid()
        v = take_stripes(alloc, 10, 10**9)
        stats = analyze_raid_writes(topo.geometry, v)
        assert stats.full_stripes == 10
        assert stats.partial_stripes == 0

    def test_block_budget_respected(self):
        alloc, topo, *_ = make_raid()
        v = take_stripes(alloc, 100, 7)
        assert v.size == 7

    def test_stripe_budget_respected(self):
        alloc, topo, *_ = make_raid(ndata=3)
        v = take_stripes(alloc, 5, 10**9)
        assert v.size == 15  # 5 stripes x 3 disks

    def test_continues_across_aas(self):
        alloc, topo, mf, keeper, _ = make_raid(blocks_per_disk=256, stripes_per_aa=64)
        v = take_stripes(alloc, 100, 10**9)
        assert np.unique(topo.aa_of_vbn(v)).size == 2

    def test_fragmented_aa_yields_fewer_blocks_per_stripe(self):
        """A fragmented AA yields partial stripes: the mechanism behind
        Figure 7's per-group write bias."""
        alloc, topo, mf, keeper, cache = make_raid()
        # Fragment every AA identically: on two of three disks, all
        # blocks are taken, leaving one free block per stripe.
        for aa in range(topo.num_aas):
            for start, stop in topo.aa_extents(aa)[:2]:
                mf.set_range(start, stop)
        keeper.recompute(mf.bitmap)
        cache.apply_changes(
            [(aa, topo.aa_blocks, keeper.score(aa)) for aa in range(topo.num_aas)]
        )
        v = take_stripes(alloc, 4, 10**9)
        stats = analyze_raid_writes(topo.geometry, v)
        assert stats.data_blocks == 4  # one free block per stripe
        assert stats.partial_stripes == 4

    def test_dry_group_returns_empty(self):
        alloc, topo, mf, keeper, cache = make_raid(blocks_per_disk=256, stripes_per_aa=64)
        take_stripes(alloc, 10**6, 10**9)
        assert take_stripes(alloc, 10, 10).size == 0


class TestAggregateAllocator:
    def make_agg(self, n_groups=2, threshold=0.0, **kw):
        allocs = []
        parts = []
        offset = 0
        for i in range(n_groups):
            a, topo, mf, keeper, cache = make_raid(offset=offset, **kw)
            allocs.append(a)
            parts.append((a, topo, mf, keeper, cache))
            offset += topo.nblocks
        # The aggregate resolves each group's current allocator
        # through its space; a namespace stands in for the space here.
        spaces = [SimpleNamespace(allocator=a) for a in allocs]
        return AggregateAllocator(spaces, threshold_fraction=threshold), parts

    def test_spreads_across_groups(self):
        agg, parts = self.make_agg()
        v = agg.allocate(600)
        assert v.size == 600
        bound = parts[0][1].nblocks
        assert (v < bound).any() and (v >= bound).any()

    def test_exact_count(self):
        agg, _ = self.make_agg()
        assert agg.allocate(1001).size == 1001

    def test_empty_request(self):
        agg, _ = self.make_agg()
        assert agg.allocate(0).size == 0

    def test_out_of_space_partial(self):
        agg, parts = self.make_agg(n_groups=1, blocks_per_disk=256, stripes_per_aa=64)
        total = parts[0][1].nblocks
        v = agg.allocate(total + 100)
        assert v.size == total

    def test_global_vbns_disjoint_per_group(self):
        agg, parts = self.make_agg()
        v = agg.allocate(1000)
        bound = parts[0][1].nblocks
        g0 = v[v < bound]
        g1 = v[v >= bound]
        assert g0.size > 0 and g1.size > 0
        assert np.unique(v).size == v.size

    def test_threshold_skips_fragmented_group(self):
        agg, parts = self.make_agg(threshold=0.5)
        # Fragment group 0 to ~25% free per AA.
        a0, topo0, mf0, keeper0, cache0 = parts[0]
        rng = np.random.default_rng(0)
        taken = rng.choice(topo0.nblocks, size=int(topo0.nblocks * 0.75), replace=False)
        mf0.allocate(taken)
        keeper0.recompute(mf0.bitmap)
        cache0.apply_changes(
            [(aa, topo0.aa_blocks, keeper0.score(aa)) for aa in range(topo0.num_aas)]
        )
        v = agg.allocate(300)
        assert v.size == 300
        assert (v >= topo0.nblocks).all()  # group 0 skipped
        assert agg.threshold_skips >= 1

    def test_all_below_threshold_still_writes(self):
        agg, parts = self.make_agg(threshold=1.1)  # impossible bar
        v = agg.allocate(100)
        assert v.size == 100

    def test_cp_flush_returns_changes(self):
        agg, parts = self.make_agg()
        agg.allocate(10)
        changes = agg.cp_flush()
        assert any(len(c) for c in changes)
        for a, topo, mf, keeper, cache in parts:
            assert_scores_match(keeper, mf.bitmap)
