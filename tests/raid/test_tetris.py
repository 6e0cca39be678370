"""Unit tests for tetris accounting (paper section 4.2)."""

from __future__ import annotations

import numpy as np

from repro.raid import TETRIS_STRIPES, count_tetrises, tetris_ids


class TestTetris:
    def test_default_is_64_stripes(self):
        assert TETRIS_STRIPES == 64

    def test_ids(self):
        assert tetris_ids(np.array([0, 63, 64, 200])).tolist() == [0, 1, 3]

    def test_count(self):
        assert count_tetrises(np.array([0, 1, 2])) == 1
        assert count_tetrises(np.array([0, 64, 128])) == 3

    def test_empty(self):
        assert count_tetrises(np.array([])) == 0
        assert tetris_ids(np.array([])).size == 0

    def test_duplicates_collapse(self):
        assert count_tetrises(np.array([1, 2, 3, 1, 2])) == 1
