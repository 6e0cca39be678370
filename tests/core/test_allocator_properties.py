"""Property-based tests: allocators against bitmap/keeper ground truth.

For arbitrary interleavings of allocations, frees, and CP boundaries:

* the allocator never hands out an in-use VBN (the metafile's
  double-allocation check would throw);
* after every CP flush, keeper scores match the bitmap exactly;
* total allocated block counts balance.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap import BitmapMetafile
from repro.core import (
    AggregateAllocator,
    CacheSource,
    LinearAATopology,
    LinearAllocator,
    RAIDAgnosticAACache,
    RAIDAwareAACache,
    RAIDGroupAllocator,
    ScoreKeeper,
    StripeAATopology,
)
from repro.raid import RAIDGeometry

from ..conftest import assert_scores_match
from .test_allocator import take_stripes


@st.composite
def op_sequences(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["alloc", "free", "cp"]),
                st.integers(1, 300),
            ),
            min_size=1,
            max_size=40,
        )
    )


def run_ops(alloc, metafile, keeper, ops, rng):
    """Drive an allocator through (op, n) pairs with a live set model."""
    live: list[int] = []
    for kind, n in ops:
        if kind == "alloc":
            got = alloc.allocate(n) if hasattr(alloc, "allocate") else None
            if got is None:  # RAID group allocator
                got = take_stripes(alloc, 10**9, n)
            assert np.unique(got).size == got.size
            live.extend(got.tolist())
        elif kind == "free" and live:
            take = min(n, len(live))
            idx = rng.choice(len(live), size=take, replace=False)
            idx = np.sort(idx)[::-1]
            freed = np.asarray([live[i] for i in idx], dtype=np.int64)
            for i in idx:
                live.pop(i)
            # Sync the allocator's pending span first: this model frees
            # directly against the metafile, something the real pipeline
            # only does at CP boundaries (which are flush points).  The
            # delayed-free discipline guarantees a block allocated in a
            # CP is never freed in that same CP, so the pending span and
            # a CP's frees are always disjoint.
            alloc.flush_pending()
            metafile.free(freed)
            keeper.note_free(freed)
        else:  # cp
            alloc.cp_flush()
            assert_scores_match(keeper, metafile.bitmap)
    alloc.cp_flush()
    assert_scores_match(keeper, metafile.bitmap)
    assert metafile.bitmap.allocated_count == len(live)


@given(ops=op_sequences(), seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_linear_allocator_random_interleavings(ops, seed):
    topo = LinearAATopology(4096, 512)
    mf = BitmapMetafile(4096, bits_per_block=512)
    keeper = ScoreKeeper(topo, mf.bitmap)
    cache = RAIDAgnosticAACache(topo.num_aas, topo.aa_blocks, keeper.scores)
    src = CacheSource(cache, lambda: topo.scores_from_bitmap(mf.bitmap))
    alloc = LinearAllocator(topo, mf, src, keeper)
    run_ops(alloc, mf, keeper, ops, np.random.default_rng(seed))
    cache.check_invariants()


@given(ops=op_sequences(), seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_raid_allocator_random_interleavings(ops, seed):
    g = RAIDGeometry(3, 1, 1024)
    topo = StripeAATopology(g, 128)
    mf = BitmapMetafile(g.data_blocks, bits_per_block=512)
    keeper = ScoreKeeper(topo, mf.bitmap)
    cache = RAIDAwareAACache(topo.num_aas, keeper.scores)
    alloc = RAIDGroupAllocator(topo, mf, CacheSource(cache), keeper)
    run_ops(alloc, mf, keeper, ops, np.random.default_rng(seed))
    cache.check_invariants()


@given(
    requests=st.lists(st.integers(1, 400), min_size=1, max_size=15),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_aggregate_allocator_never_duplicates(requests, seed):
    parts = []
    allocs = []
    offset = 0
    for _ in range(2):
        g = RAIDGeometry(3, 1, 512)
        topo = StripeAATopology(g, 64)
        mf = BitmapMetafile(g.data_blocks, bits_per_block=512)
        keeper = ScoreKeeper(topo, mf.bitmap)
        cache = RAIDAwareAACache(topo.num_aas, keeper.scores)
        a = RAIDGroupAllocator(topo, mf, CacheSource(cache), keeper,
                               store_offset=offset)
        allocs.append(a)
        parts.append((mf, keeper))
        offset += topo.nblocks
    agg = AggregateAllocator([SimpleNamespace(allocator=a) for a in allocs])
    seen: set[int] = set()
    total_capacity = offset
    for n in requests:
        got = agg.allocate(n)
        got_list = got.tolist()
        assert len(set(got_list)) == len(got_list)
        assert not (seen & set(got_list))
        seen.update(got_list)
        agg.cp_flush()
        for mf, keeper in parts:
            assert_scores_match(keeper, mf.bitmap)
        if len(seen) >= total_capacity:
            break
    assert len(seen) == min(sum(requests), total_capacity)
