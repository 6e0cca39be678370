"""Property-based tests: the bitmap agrees with a reference set model."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap import Bitmap

NBLOCKS = 512

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "free", "set_range", "clear_range"]),
        st.integers(0, NBLOCKS - 1),
        st.integers(1, 64),
    ),
    max_size=40,
)


@given(ops=ops_strategy)
@settings(max_examples=200, deadline=None)
def test_bitmap_matches_reference_set(ops):
    bm = Bitmap(NBLOCKS)
    ref: set[int] = set()
    for kind, start, length in ops:
        stop = min(start + length, NBLOCKS)
        if kind == "alloc":
            vbns = np.array([v for v in range(start, stop) if v not in ref], dtype=np.int64)
            bm.allocate(vbns)
            ref.update(vbns.tolist())
        elif kind == "free":
            vbns = np.array([v for v in range(start, stop) if v in ref], dtype=np.int64)
            bm.free(vbns)
            ref.difference_update(vbns.tolist())
        elif kind == "set_range":
            got = bm.set_range(start, stop)
            expect = len([v for v in range(start, stop) if v not in ref])
            assert got == expect
            ref.update(range(start, stop))
        else:
            got = bm.clear_range(start, stop)
            expect = len([v for v in range(start, stop) if v in ref])
            assert got == expect
            ref.difference_update(range(start, stop))
        # Global invariants after every step.
        assert bm.allocated_count == len(ref)
        assert bm.free_count == NBLOCKS - len(ref)

    # Final deep comparison.
    all_v = np.arange(NBLOCKS)
    expect_mask = np.array([v in ref for v in range(NBLOCKS)])
    assert np.array_equal(bm.test(all_v), expect_mask)


@given(
    allocated=st.sets(st.integers(0, NBLOCKS - 1), max_size=100),
    start=st.integers(0, NBLOCKS),
    length=st.integers(0, NBLOCKS),
)
@settings(max_examples=200, deadline=None)
def test_count_and_search_consistency(allocated, start, length):
    stop = min(start + length, NBLOCKS)
    bm = Bitmap(NBLOCKS)
    bm.allocate(np.array(sorted(allocated), dtype=np.int64))
    expected_alloc = [v for v in range(start, stop) if v in allocated]
    expected_free = [v for v in range(start, stop) if v not in allocated]
    assert bm.count_range(start, stop) == len(expected_alloc)
    assert bm.allocated_in_range(start, stop).tolist() == expected_alloc
    assert bm.free_in_range(start, stop).tolist() == expected_free


@given(
    allocated=st.sets(st.integers(0, NBLOCKS - 1), max_size=200),
    chunk=st.sampled_from([8, 16, 32, 64, 128, 256, 512]),
)
@settings(max_examples=100, deadline=None)
def test_counts_per_chunk_partition(allocated, chunk):
    bm = Bitmap(NBLOCKS)
    bm.allocate(np.array(sorted(allocated), dtype=np.int64))
    counts = bm.counts_per_chunk(chunk)
    assert counts.size == NBLOCKS // chunk
    assert counts.sum() == len(allocated)
    for i, c in enumerate(counts):
        assert c == len([v for v in allocated if i * chunk <= v < (i + 1) * chunk])


def _reference_bits(bm: Bitmap) -> np.ndarray:
    return np.unpackbits(np.asarray(bm.raw_bytes), bitorder="little").astype(np.int64)


# Chunks whose byte width is (64, 192, 2048) and is not (8, 24, 2016) a
# whole number of 64-bit words, times a chunk count that leaves
# ``nblocks % 64`` both zero and non-zero.
geometries = st.tuples(
    st.sampled_from([8, 24, 64, 192, 2016, 2048]), st.integers(1, 5)
)
mutations = st.lists(
    st.tuples(
        st.sampled_from(["allocate", "free", "load_bytes"]),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
    ),
    max_size=6,
)


@given(
    geometry=geometries,
    steps=mutations,
    bounds=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=4),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_word_wide_counts_match_unpackbits_reference(geometry, steps, bounds):
    chunk, nchunks = geometry
    nblocks = chunk * nchunks
    bm = Bitmap(nblocks)
    for kind, seed, density in steps:
        rng = np.random.default_rng(seed)
        bits = _reference_bits(bm)
        if kind == "load_bytes":
            image = (rng.random(nblocks) < density).astype(np.uint8)
            bm.load_bytes(np.packbits(image, bitorder="little"))
        else:
            pool = np.flatnonzero(bits == (kind == "free"))
            picked = pool[rng.random(pool.size) < density]
            (bm.allocate if kind == "allocate" else bm.free)(picked)
        bits = _reference_bits(bm)
        assert bm.counts_per_chunk(chunk).tolist() == bits.reshape(-1, chunk).sum(axis=1).tolist()
        assert bm.counts_per_chunk(chunk).dtype == np.int64
        assert bm.popcount() == bm.allocated_count == int(bits.sum())
    for a, b in bounds:
        start, stop = sorted((int(a * nblocks), int(b * nblocks)))
        bits = _reference_bits(bm)
        assert bm.count_range(start, stop) == int(bits[start:stop].sum())
        assert bm.set_range(start, stop) == int((1 - bits[start:stop]).sum())
        assert bm.clear_range(start, stop) == stop - start
        assert bm.popcount() == bm.allocated_count
