"""Unit tests for AA selection policy adapters (paper section 4.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CacheSource,
    LinearScanSource,
    RAIDAgnosticAACache,
    RAIDAwareAACache,
    RandomSource,
)


class TestCacheSourceHeap:
    def test_delegates(self):
        cache = RAIDAwareAACache(3, np.array([10, 30, 20]))
        src = CacheSource(cache)
        assert src.best_score() == 30
        assert src.next_aa() == 1
        src.return_aa(1, 30)
        assert src.next_aa() == 1
        src.cp_flush([(1, 30, 0)])
        assert src.next_aa() == 2


class TestCacheSourceHBPS:
    def test_auto_replenish(self):
        scores = np.array([100, 200], dtype=np.int64)
        cache = RAIDAgnosticAACache(2, 32768, scores, list_capacity=1)
        calls = []

        def replenisher():
            calls.append(1)
            return scores

        src = CacheSource(cache, replenisher)
        a = src.next_aa()
        assert a is not None
        src.cp_flush([(a, int(scores[a]), int(scores[a]))])
        b = src.next_aa()  # list dry -> replenish kicks in
        assert b is not None
        assert calls and src.replenish_count >= 1

    def test_no_replenisher_returns_none(self):
        cache = RAIDAgnosticAACache(2, 32768, np.array([100, 200]), list_capacity=1)
        src = CacheSource(cache)
        src.next_aa()
        # Second pop: the one remaining AA is unlisted -> None.
        assert src.next_aa() is None


class TestRandomSource:
    def test_never_hands_out_twice_concurrently(self):
        src = RandomSource(8, seed=1)
        seen = [src.next_aa() for _ in range(8)]
        assert sorted(seen) == list(range(8))
        assert src.next_aa() is None

    def test_return_allows_reissue(self):
        src = RandomSource(1, seed=1)
        assert src.next_aa() == 0
        src.return_aa(0, 0)
        assert src.next_aa() == 0

    def test_cp_flush_releases_changed(self):
        src = RandomSource(2, seed=1)
        a = src.next_aa()
        src.cp_flush(np.array([(a, 10, 5)]))
        got = {src.next_aa(), src.next_aa()}
        assert got == {0, 1}

    def test_no_score_knowledge(self):
        assert RandomSource(4).best_score() is None

    def test_deterministic_with_seed(self):
        s1 = [RandomSource(100, seed=5).next_aa() for _ in range(1)]
        s2 = [RandomSource(100, seed=5).next_aa() for _ in range(1)]
        assert s1 == s2


class TestLinearScanSource:
    def test_in_order(self):
        src = LinearScanSource(4)
        assert [src.next_aa() for _ in range(4)] == [0, 1, 2, 3]
        assert src.next_aa() is None

    def test_wraps_after_returns(self):
        src = LinearScanSource(3)
        a = src.next_aa()
        src.return_aa(a, 0)
        assert src.next_aa() == 1
        assert src.next_aa() == 2
        assert src.next_aa() == 0  # wrapped to the returned one

    def test_validation(self):
        from repro.common import CacheError

        with pytest.raises(CacheError):
            LinearScanSource(0)
        with pytest.raises(CacheError):
            RandomSource(0)
