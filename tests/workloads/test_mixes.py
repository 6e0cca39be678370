"""Unit tests for per-tenant op mixes: block ranges, adjacency, skew,
the read split and the sequential cursor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads import SequentialMix, UniformOverwriteMix, ZipfOverwriteMix


class TestUniformMix:
    def test_block_count_and_bounds(self):
        mix = UniformOverwriteMix(10_000, blocks_per_op=2, seed=0)
        writes, deletes = mix.next_ops(500)
        assert writes.size == 1_000
        assert deletes.size == 0
        assert writes.min() >= 0
        assert writes.max() < 10_000

    def test_ops_dirty_adjacent_blocks(self):
        mix = UniformOverwriteMix(10_000, blocks_per_op=2, seed=0)
        writes, _ = mix.next_ops(100)
        pairs = writes.reshape(-1, 2)
        assert np.all(pairs[:, 1] - pairs[:, 0] == 1)

    def test_working_set_restricts_range(self):
        mix = UniformOverwriteMix(
            10_000, working_set_fraction=0.1, blocks_per_op=2, seed=0
        )
        writes, _ = mix.next_ops(2_000)
        assert writes.max() <= 10_000 * 0.1 + 2

    def test_zero_ops_yields_empty(self):
        mix = UniformOverwriteMix(10_000, seed=0)
        writes, deletes = mix.next_ops(0)
        assert writes.size == 0 and deletes.size == 0

    def test_same_seed_replays(self):
        a, _ = UniformOverwriteMix(10_000, seed=5).next_ops(200)
        b, _ = UniformOverwriteMix(10_000, seed=5).next_ops(200)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformOverwriteMix(0)
        with pytest.raises(ValueError):
            UniformOverwriteMix(100, blocks_per_op=0)
        with pytest.raises(ValueError):
            UniformOverwriteMix(100, working_set_fraction=0.0)
        with pytest.raises(ValueError):
            UniformOverwriteMix(100, working_set_fraction=1.5)
        with pytest.raises(ValueError):
            UniformOverwriteMix(100, read_fraction=1.0)
        with pytest.raises(ValueError):
            UniformOverwriteMix(100, read_fraction=-0.1)

    @pytest.mark.parametrize("fraction, n_ops, expect", [
        (0.0, 1_000, (0, 1_000)), (0.55, 1_000, (550, 450)), (0.65, 999, (649, 350)),
    ])
    def test_split_takes_the_reads_first(self, fraction, n_ops, expect):
        mix = UniformOverwriteMix(10_000, read_fraction=fraction, seed=0)
        assert mix.split(n_ops) == expect


class TestZipfMix:
    def test_bounds_and_shape(self):
        mix = ZipfOverwriteMix(10_000, seed=1)
        writes, deletes = mix.next_ops(1_000)
        assert writes.size == 2_000
        assert deletes.size == 0
        assert writes.min() >= 0
        assert writes.max() < 10_000

    def test_traffic_is_skewed(self):
        n_ops = 20_000
        zipf_w, _ = ZipfOverwriteMix(50_000, seed=2).next_ops(n_ops)
        uni_w, _ = UniformOverwriteMix(50_000, seed=2).next_ops(n_ops)
        # The hottest block absorbs a visible share of all traffic, and
        # far fewer distinct blocks are touched than under uniform load.
        _, counts = np.unique(zipf_w, return_counts=True)
        assert counts.max() / zipf_w.size > 0.05
        assert np.unique(zipf_w).size < 0.5 * np.unique(uni_w).size

    def test_hot_set_is_scattered(self):
        mix = ZipfOverwriteMix(50_000, seed=3)
        writes, _ = mix.next_ops(20_000)
        blocks, counts = np.unique(writes, return_counts=True)
        hot = np.sort(blocks[np.argsort(counts)[-8:]])
        # Hottest blocks span the volume, not one contiguous extent.
        assert hot.max() - hot.min() > 50_000 // 4

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            ZipfOverwriteMix(100, alpha=1.0)
        with pytest.raises(ValueError):
            ZipfOverwriteMix(100, alpha=0.5)


def _cursor_reference(size: int, per_op: int, wrap: bool, shares: list[int]):
    """The cursor ``SequentialWriteWorkload`` kept per volume before it
    drew through :class:`SequentialMix`, written out as it was."""
    cursor, done, out = 0, False, []
    for share in shares:
        if done:
            out.append(np.empty(0, dtype=np.int64))
            continue
        want = share * per_op
        if wrap:
            ids = (cursor + np.arange(want, dtype=np.int64)) % size
            cursor = int((cursor + want) % size)
        else:
            want = min(want, size - cursor)
            ids = cursor + np.arange(want, dtype=np.int64)
            cursor += want
            done = cursor >= size
        out.append(ids)
    return out, done


class TestSequentialMix:
    @pytest.mark.parametrize("wrap", [False, True])
    @pytest.mark.parametrize("per_op, shares", [(1, [300, 400, 500, 1]), (3, [100, 7, 250, 90])])
    def test_cursor_matches_the_workload_it_left(self, wrap, per_op, shares):
        mix = SequentialMix(1_000, blocks_per_op=per_op, wrap=wrap)
        expect, done = _cursor_reference(1_000, per_op, wrap, shares)
        for share, ids in zip(shares, expect):
            writes, deletes = mix.next_ops(share)
            np.testing.assert_array_equal(writes, ids)
            assert writes.dtype == np.int64 and deletes.size == 0
        assert mix.exhausted == done
