"""Unit tests for the delayed-free log and its HBPS prioritization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitmap import BitmapMetafile
from repro.core import DelayedFreeLog


def make_pair(nblocks=4096, bits=256):
    mf = BitmapMetafile(nblocks, bits_per_block=bits)
    log = DelayedFreeLog(bits_per_block=bits)
    return mf, log


class TestLogging:
    def test_pending_counts(self):
        mf, log = make_pair()
        mf.allocate(np.array([1, 2, 300, 600]))
        log.add(np.array([1, 2, 300]))
        assert log.pending_count == 3
        assert log.pending_blocks == 2  # blocks 0 and 1
        assert log.total_logged == 3

    def test_empty_add_is_noop(self):
        _, log = make_pair()
        log.add(np.empty(0, dtype=np.int64))
        assert log.pending_count == 0

    def test_multiple_adds_accumulate(self):
        mf, log = make_pair()
        mf.allocate(np.arange(100))
        log.add(np.arange(50))
        log.add(np.arange(50, 100))
        assert log.pending_count == 100
        assert log.pending_blocks == 1


class TestApplyAll:
    def test_apply_all_frees_everything(self):
        mf, log = make_pair()
        vbns = np.array([5, 600, 2000])
        mf.allocate(vbns)
        log.add(vbns)
        freed = log.apply_all(mf)
        assert sorted(freed.tolist()) == sorted(vbns.tolist())
        assert mf.free_count == mf.nblocks
        assert log.pending_count == 0

    def test_apply_all_empty(self):
        mf, log = make_pair()
        assert log.apply_all(mf).size == 0

    @pytest.mark.parametrize("read_counts", [False, True])
    def test_apply_all_resets_the_prioritizing_hbps(self, read_counts):
        """Whether or not the counts were read (which fills the HBPS),
        the next CP's frees start from an empty HBPS."""
        mf, log = make_pair()
        mf.allocate(np.arange(1000))
        log.add(np.array([1, 2, 300]))
        if read_counts:
            assert log.hbps.total_count == 2
        log.apply_all(mf)
        log.add(np.array([3, 301, 700]))
        assert log.hbps.total_count == log.pending_blocks == 3
        log.check_invariants(mf.bitmap)

    def test_batched_frees_amortize_metafile_updates(self):
        """Frees to the same metafile block applied together dirty it
        once — the point of delaying (paper section 3.3)."""
        mf, log = make_pair()
        mf.allocate(np.arange(200))
        mf.drain_dirty()
        log.add(np.arange(0, 200, 2))
        log.apply_all(mf)
        assert mf.dirty_block_count == 1


class TestApplyBest:
    def test_prefers_fullest_blocks(self):
        """HBPS prioritization: the metafile block with the most
        pending frees is processed first."""
        mf, log = make_pair()
        few = np.array([0, 1])            # block 0: 2 pending
        many = np.arange(256, 356)        # block 1: 100 pending
        mf.allocate(np.concatenate([few, many]))
        log.add(few)
        log.add(many)
        freed = log.apply_best(mf, max_blocks=1)
        assert freed.size == 100
        assert log.pending_count == 2
        assert log.pending_blocks == 1

    def test_apply_best_drains_eventually(self):
        mf, log = make_pair()
        vbns = np.concatenate([np.arange(0, 10), np.arange(256, 356), np.arange(512, 530)])
        mf.allocate(vbns)
        log.add(vbns)
        total = 0
        while log.pending_count:
            total += log.apply_best(mf, max_blocks=1).size
        assert total == vbns.size
        assert mf.free_count == mf.nblocks

    def test_apply_best_respects_budget(self):
        mf, log = make_pair()
        vbns = np.concatenate([np.arange(0, 10), np.arange(256, 266), np.arange(512, 522)])
        mf.allocate(vbns)
        log.add(vbns)
        log.apply_best(mf, max_blocks=2)
        assert log.pending_blocks == 1

    def test_hbps_tracks_block_scores(self):
        mf, log = make_pair()
        mf.allocate(np.arange(0, 50))
        log.add(np.arange(0, 50))
        assert log.hbps.total_count == 1
        log.hbps.check_invariants()
