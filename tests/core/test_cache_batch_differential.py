"""Differential test: batched ``consume`` against the per-change caches.

Both AA caches absorb a CP's score transitions as one array batch
(``RAIDAwareAACache.apply_changes``, ``RAIDAgnosticAACache.apply_changes``
over ``HBPS.update_many``).  The oracles below are per-change
``apply_changes`` bodies as functions of the cache: one HBPS
``insert``/``update``, or one heap key and its block's maximum, per
transition, in row order.

Twin caches — fresh, HBPS seeded from TopAA pages, heaps with unknown
AAs — run the same rounds of selects, returns and batches (held and
checked-out AAs, empty batches, tracked populations on both sides of
``list_capacity + 1``, corrupted old/new scores).  After each batch the
twins must agree on raising or not, and when neither raised on every
observable: the HBPS pages and listing, ``stats()``, ``checked_out``,
the heap's scores, and the next 16 ``select()``s.
Where the oracle raises, the batched cache must refuse the batch whole.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import CacheError
from repro.core import HBPS, RAIDAgnosticAACache, RAIDAwareAACache

from ..conftest import examples

MAX_SCORES = (64, 100)  # 100 is no multiple of any bin width drawn
BIN_WIDTHS = (7, 16, 64)


# ----------------------------------------------------------------------
# Oracles: the per-change bodies the batch replaced
# ----------------------------------------------------------------------
def oracle_hbps_apply(cache, changes, held=frozenset()):
    for aa, old, new in changes:
        if aa in held and aa in cache._out:
            continue  # still being filled; re-enters via return_aa
        if aa in cache._out:
            cache._out.discard(aa)
            cache._hbps.insert(aa, new)
            if cache._seeded:
                cache._assumed[aa] = new
        elif cache._seeded:
            if cache._hbps.is_listed(aa):
                assumed = cache._assumed.pop(aa)
                cache._hbps.update(aa, assumed, new)
                if cache._hbps.is_listed(aa):
                    cache._assumed[aa] = new
            # else: stale until rebuild
        else:
            cache._hbps.update(aa, old, new)


def oracle_heap_apply(cache, changes, held=frozenset()):
    for aa, _old, new in changes:
        if cache._score[aa] == -1:
            continue
        cache._score[aa] = new
        if aa in held and aa in cache._out:
            continue  # still being filled; re-enters via push_back
        cache._out.discard(aa)
        cache._key.put(aa, (new << cache._shift) - aa)
        block = aa >> cache._block_bits
        cache._block_max[block] = cache._key[block].max()
        cache.pushes += 1


# ----------------------------------------------------------------------
def observe(cache) -> dict:
    """Everything a caller can see, plus the next 16 selects (taken on
    a copy so the twins stay in step)."""
    probe = copy.deepcopy(cache)
    seen = {
        "stats": cache.stats(),
        "checked_out": cache.checked_out,
        "selects": [probe.select() for _ in range(16)],
    }
    if isinstance(cache, RAIDAgnosticAACache):
        seen["pages"] = cache.to_pages()
        seen["listed"] = list(cache.hbps.iter_listed())
        seen["counts"] = cache.hbps.counts.tolist()
    else:
        seen["scores"] = cache.scores_view.tolist()
    return seen


@st.composite
def caches(draw):
    """A cache and the scores its tracked AAs truly have."""
    num_aas = draw(st.integers(1, 24))
    if draw(st.booleans()):
        scores = np.array(draw(st.lists(st.integers(0, 400), min_size=num_aas, max_size=num_aas)))
        if draw(st.booleans()):
            return RAIDAwareAACache(num_aas, scores), scores
        cache = RAIDAwareAACache(num_aas)  # TopAA-seeded: only some AAs known
        cache.populate([(aa, int(scores[aa])) for aa in draw(st.sets(st.integers(0, num_aas - 1)))])
        return cache, scores
    max_score = draw(st.sampled_from(MAX_SCORES))
    scores = np.array(
        draw(st.lists(st.integers(0, max_score), min_size=num_aas, max_size=num_aas))
    )
    kw = {
        "bin_width": draw(st.sampled_from(BIN_WIDTHS)),
        # Around num_aas the worst listed bin can rise inside a batch.
        "list_capacity": draw(st.integers(1, 12) | st.integers(max(num_aas - 2, 1), num_aas + 1)),
    }
    cache = RAIDAgnosticAACache(num_aas, max_score, scores, **kw)
    if draw(st.booleans()):
        cache = RAIDAgnosticAACache.from_pages(
            cache.to_pages(), num_aas, list_capacity=kw["list_capacity"]
        )
    return cache, scores


def _score_bound(cache) -> int:
    return cache.aa_blocks if isinstance(cache, RAIDAgnosticAACache) else 400


@st.composite
def batch(draw, cache, scores):
    """One CP's transitions: distinct AAs in any order, true or
    corrupted old scores, in-range or corrupted new ones.  Now and then
    the batch is malformed — an AA twice, an AA of -1 or ``num_aas``, a
    row not three wide (a tuple, or the array's width) — and every
    cache must refuse it whole.  Returns ``(changes, held, malformed)``."""
    top = _score_bound(cache)
    aas = draw(st.permutations(range(cache.num_aas)))[: draw(st.integers(0, cache.num_aas))]
    corrupt = draw(st.integers(0, 2)) == 0
    lo = 0 if isinstance(cache, RAIDAwareAACache) else -3  # heap negatives: a refusal test
    rows = []
    for aa in aas:
        old, new = int(scores[aa]), draw(st.integers(0, top))
        # Corrupt scores collide on a few bins, so underflows hinge on order.
        if corrupt and draw(st.booleans()):
            old = draw(st.sampled_from((lo, 0, 1, top // 2, top, top + 1)))
        if corrupt and draw(st.booleans()):
            new = draw(st.sampled_from((lo, 0, 1, top // 2, top, top + 1)))
        rows.append((aa, old, new))
    flaw = draw(st.sampled_from((None,) * 6 + ("twice", "outside", "ragged")))
    if flaw in ("twice", "ragged") and not rows:
        rows.append((0, int(scores[0]), 0))
    if flaw == "twice":
        aa = draw(st.sampled_from([row[0] for row in rows]))
        rows.insert(draw(st.integers(0, len(rows))), (aa, int(scores[aa]), top))
    elif flaw == "outside":
        aa = draw(st.sampled_from((-1, cache.num_aas)))
        rows.insert(draw(st.integers(0, len(rows))), (aa, 0, 0))
    out = sorted(cache.checked_out)
    held = frozenset(draw(st.lists(st.sampled_from(out), max_size=2))) if out else frozenset()
    if draw(st.integers(0, 5)) == 0:
        held |= {draw(st.integers(0, cache.num_aas - 1))}  # held but not checked out
    as_array, width = draw(st.booleans()), 3
    if flaw == "ragged":
        width = draw(st.sampled_from((2, 4)))
        if as_array:
            rows = [(row + (0,))[:width] for row in rows]
        else:
            i = draw(st.integers(0, len(rows) - 1))
            rows[i] = (rows[i] + (0,))[:width]
    changes = np.array(rows, dtype=np.int64).reshape(-1, width) if as_array else rows
    return changes, held, flaw is not None


@given(data=st.data())
@settings(max_examples=examples(120), deadline=None)
def test_batched_consume_matches_per_change_oracle(data):
    cache, scores = data.draw(caches())
    oracle = copy.deepcopy(cache)
    apply_oracle = (
        oracle_hbps_apply if isinstance(cache, RAIDAgnosticAACache) else oracle_heap_apply
    )
    for _round in range(data.draw(st.integers(1, 6))):
        for _ in range(data.draw(st.integers(0, 3))):
            assert cache.select() == oracle.select()
        for aa in data.draw(st.lists(st.sampled_from(sorted(cache.checked_out) or [None]),
                                     max_size=1, unique=True)):
            if aa is not None:
                cache.invalidate(aa, int(scores[aa]))
                oracle.invalidate(aa, int(scores[aa]))
        changes, held, malformed = data.draw(batch(cache, scores))
        before = observe(cache)
        if malformed:  # no oracle: refused whole, so the twins stay in step
            with pytest.raises(CacheError):
                cache.consume(changes, held)
            assert observe(cache) == before
            continue
        try:
            apply_oracle(oracle, [tuple(map(int, row)) for row in changes], held)
        except CacheError:
            with pytest.raises(CacheError):
                cache.consume(changes, held)
            assert observe(cache) == before  # refused whole
            return
        cache.consume(changes, held)
        assert observe(cache) == observe(oracle)
        for aa, _old, new in changes:
            if 0 <= new <= _score_bound(cache):  # a held AA may skip a corrupt score
                scores[aa] = new


# ----------------------------------------------------------------------
# HBPS.update_many's two order-sensitive cases, pinned
# ----------------------------------------------------------------------
def _twins(scores, list_capacity):
    h = HBPS(64, bin_width=16, list_capacity=list_capacity)
    h.build(np.arange(len(scores)), np.array(scores))
    return h, copy.deepcopy(h)


def _per_row(h, rows):
    for item, old, new in rows:
        h.update(item, old, new)


def test_worst_listed_bin_rises_inside_a_batch():
    # Capacity 5, six items: item 5 (score 20) is the one left unlisted.
    batched, oracle = _twins([64, 60, 50, 40, 30, 20], list_capacity=5)
    for h in (batched, oracle):
        h.pop_best()  # five tracked, four listed: room again
    rows = [(5, 20, 5)]  # into a bin worse than the worst listed one
    _per_row(oracle, rows)
    batched.update_many(np.array([[5], [20], [5]]))
    assert batched.is_listed(5) and oracle.is_listed(5)
    assert batched.to_pages() == oracle.to_pages()


def test_underflow_check_replays_arrivals_in_row_order():
    # Bin 3 (scores 1-16) holds item 0 only; rows 2 and 3 claim it too,
    # after row 1 has moved item 1 in, so no bin ever runs dry.  Item 4
    # re-enters first, as a checked-out AA does; its old score is unread.
    batched, oracle = _twins([5, 40, 60, 60, 64], list_capacity=10)
    for h in (batched, oracle):
        assert h.pop_best()[0] == 4
    oracle.insert(4, 30)
    _per_row(oracle, [(1, 40, 5), (2, 5, 60), (3, 5, 60)])
    batched.update_many(np.array([[4, 1, 2, 3], [-7, 40, 5, 5], [30, 5, 60, 60]]), {4})
    assert batched.to_pages() == oracle.to_pages()
    with pytest.raises(CacheError, match="underflow"):  # one claim too many
        batched.update_many(np.array([[2, 3], [5, 5], [60, 60]]))
