"""Property-based tests for HBPS against a reference multiset model.

The reference model tracks every (item, score) pair exactly.  After any
sequence of inserts, updates, removes and pops:

* histogram counts must partition the tracked items;
* every pop must return an item within one bin width of the reference
  maximum (the 3.125% guarantee), *as long as the list is non-empty*;
* the list page never exceeds capacity;
* ``check_invariants`` (full-listing of better bins) always holds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CacheError
from repro.core import HBPS

from ..conftest import examples

MAX_SCORE = 1024
BIN_W = 64


@st.composite
def operation_sequences(draw):
    n_items = draw(st.integers(1, 40))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "remove", "pop"]),
                st.integers(0, n_items - 1),
                st.integers(0, MAX_SCORE),
            ),
            max_size=120,
        )
    )
    return ops


@given(ops=operation_sequences(), capacity=st.integers(1, 30))
@settings(max_examples=examples(300), deadline=None)
def test_hbps_against_reference(ops, capacity):
    h = HBPS(MAX_SCORE, bin_width=BIN_W, list_capacity=capacity)
    ref: dict[int, int] = {}

    for kind, item, score in ops:
        if kind == "insert":
            if item in ref:
                continue
            h.insert(item, score)
            ref[item] = score
        elif kind == "update":
            if item not in ref:
                continue
            h.update(item, ref[item], score)
            ref[item] = score
        elif kind == "remove":
            if item not in ref:
                continue
            h.remove(item, ref[item])
            del ref[item]
        else:  # pop
            popped = h.pop_best()
            if popped is None:
                assert h.listed_count == 0
                continue
            it, b = popped
            assert it in ref
            true_max = max(ref.values())
            # Guarantee: within one bin of the best tracked score.
            assert ref[it] >= true_max - BIN_W
            lo, hi = h.bin_bounds(b)
            assert lo <= ref[it] <= hi
            del ref[it]

        # Structural invariants after every operation.
        h.check_invariants()
        listed_bins = [b for _, b in h.iter_listed()]
        assert h._worst_listed_bin() == max(listed_bins, default=None)
        assert h.total_count == len(ref)
        assert h.listed_count <= capacity

    # Histogram counts partition the reference multiset.
    for b in range(h.nbins):
        expect = sum(1 for s in ref.values() if h.bin_of(s) == b)
        assert h.counts[b] == expect


@given(ops=operation_sequences())
@settings(max_examples=examples(100), deadline=None)
def test_serialization_roundtrip_any_state(ops):
    h = HBPS(MAX_SCORE, bin_width=BIN_W, list_capacity=16)
    ref: dict[int, int] = {}
    for kind, item, score in ops:
        if kind == "insert" and item not in ref:
            h.insert(item, score)
            ref[item] = score
        elif kind == "update" and item in ref:
            h.update(item, ref[item], score)
            ref[item] = score
        elif kind == "remove" and item in ref:
            h.remove(item, ref[item])
            del ref[item]
        elif kind == "pop":
            popped = h.pop_best()
            if popped:
                del ref[popped[0]]
    h2 = HBPS.from_pages(h.to_pages(), list_capacity=16)
    h2.check_invariants()
    assert h2.total_count == h.total_count
    assert list(h2.counts) == list(h.counts)
    listed_items = {i for i, _ in h.iter_listed()}
    listed_items2 = {i for i, _ in h2.iter_listed()}
    assert listed_items == listed_items2


@given(
    scores=st.lists(st.integers(0, MAX_SCORE), min_size=1, max_size=200),
    capacity=st.integers(1, 50),
)
@settings(max_examples=examples(150), deadline=None)
def test_rebuild_then_drain_is_near_sorted(scores, capacity):
    """Draining a rebuilt HBPS yields scores in near-descending order:
    each popped score is within one bin width of the remaining max."""
    h = HBPS(MAX_SCORE, bin_width=BIN_W, list_capacity=capacity)
    pairs = list(enumerate(scores))
    h.rebuild(pairs)
    remaining = dict(pairs)
    while remaining:
        popped = h.pop_best()
        if popped is None:
            # List dry: replenish from the reference (background scan).
            h.rebuild(remaining.items())
            popped = h.pop_best()
            assert popped is not None
        item, _b = popped
        assert remaining[item] >= max(remaining.values()) - BIN_W
        del remaining[item]
    assert h.total_count == 0


@given(
    scores=st.lists(st.integers(0, MAX_SCORE), max_size=200),
    capacity=st.integers(1, 50),
    bin_width=st.sampled_from([BIN_W, 100]),  # 100 does not divide MAX_SCORE
    gaps=st.booleans(),
)
@settings(max_examples=examples(150), deadline=None, derandomize=True)
def test_array_build_equals_per_item_inserts(scores, capacity, bin_width, gaps):
    """``build`` (and its ``rebuild(pairs)`` adapter) leaves exactly the
    structure that inserting the items one at a time does — the same
    two pages byte for byte, the same list order within each bin."""
    items = [3 * i + 1 if gaps else i for i in range(len(scores))]
    reference = HBPS(MAX_SCORE, bin_width=bin_width, list_capacity=capacity)
    for item, score in zip(items, scores):
        reference.insert(item, score)
    built = HBPS(MAX_SCORE, bin_width=bin_width, list_capacity=capacity)
    built.build(np.array(items, dtype=np.int64), np.array(scores, dtype=np.int64))
    adapted = HBPS(MAX_SCORE, bin_width=bin_width, list_capacity=capacity)
    adapted.rebuild(zip(items, scores))
    for h in (built, adapted):
        h.check_invariants()
        assert h.to_pages() == reference.to_pages()
        assert list(h.iter_listed()) == list(reference.iter_listed())
        assert h.total_count == len(scores)

    # A build that is refused leaves the structure as it was.
    before = built.to_pages(), list(built.iter_listed()), built.replenishes
    for bad in (-1, MAX_SCORE + 1):
        with pytest.raises(CacheError):
            built.build(np.arange(3), np.array([5, bad, 7]))
    assert (built.to_pages(), list(built.iter_listed()), built.replenishes) == before
