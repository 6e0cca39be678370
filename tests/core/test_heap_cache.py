"""Unit tests for the RAID-aware (max-heap) AA cache."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.common import CacheError
from repro.core import RAIDAwareAACache


def full_cache(scores):
    return RAIDAwareAACache(len(scores), np.asarray(scores, dtype=np.int64))


class TestFullBuild:
    def test_pop_best_order(self):
        c = full_cache([10, 50, 30, 40, 20])
        order = [c.pop_best() for _ in range(5)]
        assert order == [1, 3, 2, 4, 0]
        assert c.pop_best() is None

    def test_best_score_peeks(self):
        c = full_cache([10, 50, 30])
        assert c.best_score() == 50
        assert c.pop_best() == 1
        assert c.best_score() == 30

    def test_fully_populated(self):
        c = full_cache([1, 2, 3])
        assert c.fully_populated
        assert c.known_count == 3

    def test_memory_model(self):
        # Paper: ~1 MiB for 1M AAs (section 3.3.1); a score and a key are 16 B.
        for n in (1000, 100_000, 1_000_000):
            c = RAIDAwareAACache(n, np.zeros(n, dtype=np.int64))
            assert 16 * n <= c.memory_bytes <= 17 * n

    def test_length_mismatch_rejected(self):
        with pytest.raises(CacheError):
            RAIDAwareAACache(4, np.zeros(3, dtype=np.int64))


class TestCheckout:
    def test_popped_aa_not_returned_twice(self):
        c = full_cache([5, 5, 5])
        seen = {c.pop_best(), c.pop_best(), c.pop_best()}
        assert seen == {0, 1, 2}

    def test_push_back_restores(self):
        c = full_cache([10, 20])
        aa = c.pop_best()
        assert aa == 1
        c.push_back(1)
        assert c.pop_best() == 1

    def test_push_back_requires_checkout(self):
        c = full_cache([10, 20])
        with pytest.raises(CacheError):
            c.push_back(0)

    def test_checked_out_tracking(self):
        c = full_cache([10, 20])
        c.pop_best()
        assert c.checked_out == frozenset({1})


class TestApplyChanges:
    def test_rebalance_after_score_change(self):
        c = full_cache([10, 20, 30])
        c.apply_changes([(0, 10, 99)])
        assert c.pop_best() == 0

    def test_checked_out_aa_reinstated_by_change(self):
        c = full_cache([10, 20])
        aa = c.pop_best()
        assert aa == 1
        c.apply_changes([(1, 20, 5)])
        assert c.checked_out == frozenset()
        assert c.pop_best() == 0  # 10 > 5
        assert c.pop_best() == 1

    def test_stale_entries_invalidated(self):
        c = full_cache([10, 20, 30])
        c.apply_changes([(2, 30, 1)])
        c.apply_changes([(2, 1, 25)])
        assert [c.pop_best() for _ in range(3)] == [2, 1, 0]

    def test_invariants_after_many_changes(self):
        rng = np.random.default_rng(0)
        scores = rng.integers(0, 1000, size=50)
        c = full_cache(scores)
        snapshot = scores.copy()
        for _ in range(200):
            aa = int(rng.integers(50))
            if aa in c.checked_out:
                continue
            new = int(rng.integers(0, 1000))
            c.apply_changes([(aa, int(snapshot[aa]), new)])
            snapshot[aa] = new
        c.check_invariants()
        # Drain: must be non-increasing and complete.
        out = []
        while True:
            aa = c.pop_best()
            if aa is None:
                break
            out.append(int(snapshot[aa]))
        assert out == sorted(out, reverse=True)
        assert len(out) == 50

    def test_churn_does_not_grow_memory(self):
        rng = np.random.default_rng(0)
        c = full_cache(rng.integers(0, 1000, size=1024))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                aas = rng.choice(1024, size=64, replace=False)
                c.apply_changes(np.column_stack(
                    (aas, c.scores_view[aas], rng.integers(0, 1000, size=64))))
                c.push_back(c.pop_best())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Transient batch arrays only: a heap of score entries would hold
        # thousands of tuples (hundreds of KiB) by now.
        assert peak - base < 64 * 1024
        c.check_invariants()

    def test_unencodable_score_is_refused_whole(self):
        c = full_cache([10, 20, 30])
        assert c.max_score == np.iinfo(np.int64).max >> 2
        with pytest.raises(CacheError, match="above"):
            c.apply_changes([(0, 10, 11), (1, 20, c.max_score + 1)])
        with pytest.raises(CacheError, match="above"):
            c.refill(np.array([1, 2, c.max_score + 1]))
        with pytest.raises(CacheError, match="above"):
            RAIDAwareAACache(3).populate([(0, 5), (2, c.max_score + 1)])
        assert c.scores_view.tolist() == [10, 20, 30]
        assert [c.pop_best() for _ in range(3)] == [2, 1, 0]
        c.apply_changes([(0, 10, c.max_score)])
        c.check_invariants()


class TestSeededMode:
    def test_starts_unknown(self):
        c = RAIDAwareAACache(10)
        assert not c.fully_populated
        assert c.known_count == 0
        assert c.pop_best() is None

    def test_populate_makes_available(self):
        c = RAIDAwareAACache(10)
        c.populate([(3, 50), (7, 80)])
        assert c.pop_best() == 7
        assert c.pop_best() == 3

    def test_populate_twice_rejected(self):
        c = RAIDAwareAACache(10)
        c.populate([(3, 50)])
        with pytest.raises(CacheError, match="already populated"):
            c.populate([(3, 60)])
        with pytest.raises(CacheError, match="twice"):
            c.populate([(4, 60), (4, 70)])
        assert c.known_count == 1  # a refused batch installs nothing

    def test_changes_for_unknown_aas_skipped(self):
        """Score transitions for not-yet-populated AAs are deferred to
        the background rebuild (TopAA mount path)."""
        c = RAIDAwareAACache(10)
        c.populate([(0, 5)])
        c.apply_changes([(9, 100, 50)])  # unknown AA: ignored
        assert c.known_count == 1
        assert c.score_of(9) == -1

    def test_background_population_completes(self):
        c = RAIDAwareAACache(6)
        c.populate([(0, 10), (1, 60)])
        c.populate([(aa, aa * 10) for aa in range(2, 6)])
        assert c.fully_populated
        assert c.pop_best() == 1  # 60
        assert c.pop_best() == 5  # 50
