"""Unit tests for CP-batched AA score tracking (paper section 3.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitmap import Bitmap
from repro.common import CacheError
from repro.core import LinearAATopology, ScoreKeeper
from ..conftest import assert_scores_match


def make_keeper(nblocks=1024, per_aa=256, bitmap=None):
    topo = LinearAATopology(nblocks, per_aa)
    return ScoreKeeper(topo, bitmap), topo


class TestInit:
    def test_empty_space_scores_full(self):
        k, t = make_keeper()
        assert k.scores.tolist() == [256] * 4

    def test_init_from_bitmap(self):
        bm = Bitmap(1024)
        bm.set_range(0, 100)
        k, _ = make_keeper(bitmap=bm)
        assert k.scores.tolist() == [156, 256, 256, 256]

    def test_init_from_walked_scores_takes_its_own_copy(self):
        topo = LinearAATopology(1024, 256)
        walked = np.array([156, 256, 0, 7], dtype=np.int32)
        k = ScoreKeeper(topo, scores=walked)
        walked[:] = -1  # the caller's array is not the keeper's
        assert k.scores.tolist() == [156, 256, 0, 7]
        assert k.scores.dtype == np.int64
        with pytest.raises(CacheError, match="length"):
            ScoreKeeper(topo, scores=walked[:3])

    def test_scores_readonly(self):
        k, _ = make_keeper()
        with pytest.raises(ValueError):
            k.scores[0] = 1


class TestDeltas:
    def test_deltas_are_delayed(self):
        k, _ = make_keeper()
        k.note_alloc(np.arange(10))
        assert k.score(0) == 256  # not yet applied
        assert k.effective_score(0) == 246
        assert k.has_pending(0)
        assert k.pending_aa_count == 1

    def test_flush_applies_and_reports(self):
        k, _ = make_keeper()
        k.note_alloc(np.arange(10))
        k.note_free(np.array([5]))  # net -9 on AA 0
        changes = k.flush()
        assert changes.dtype == np.int64
        assert changes.tolist() == [[0, 256, 247]]
        assert k.score(0) == 247
        assert not k.has_pending(0)

    def test_flush_empty(self):
        k, _ = make_keeper()
        assert k.flush().shape == (0, 3)
        assert k.flushes == 1

    def test_cancelling_deltas_not_reported(self):
        k, _ = make_keeper()
        k.note_alloc_aa(1, 7)
        k.note_free_aa(1, 7)
        assert len(k.flush()) == 0

    def test_cross_aa_batches(self):
        k, _ = make_keeper()
        k.note_alloc(np.array([0, 1, 256, 257, 258, 768]))
        changes = k.flush()
        assert changes.tolist() == [[0, 256, 254], [1, 256, 253], [3, 256, 255]]

    def test_out_of_range_delta_raises(self):
        k, _ = make_keeper()
        k.note_free_aa(0, 1)  # would exceed capacity
        with pytest.raises(CacheError):
            k.flush()

    def test_negative_score_raises(self):
        k, _ = make_keeper()
        k.note_alloc_aa(0, 300)
        with pytest.raises(CacheError):
            k.flush()


class TestVerification:
    def test_verify_against_matching_bitmap(self):
        bm = Bitmap(1024)
        k, _ = make_keeper(bitmap=bm)
        bm.allocate(np.arange(20))
        k.note_alloc(np.arange(20))
        k.flush()
        assert_scores_match(k, bm)  # no raise

    def test_verify_detects_divergence(self):
        bm = Bitmap(1024)
        k, _ = make_keeper(bitmap=bm)
        bm.allocate(np.arange(20))  # bitmap moved, keeper not told
        with pytest.raises(AssertionError, match="divergence"):
            assert_scores_match(k, bm)

    def test_recompute_resyncs(self):
        bm = Bitmap(1024)
        k, _ = make_keeper(bitmap=bm)
        bm.allocate(np.arange(20))
        k.note_alloc_aa(2, 5)  # bogus pending delta
        k.recompute(bm)
        assert k.score(0) == 236
        assert k.pending_aa_count == 0
        assert_scores_match(k, bm)
