"""Tetris accounting.

A *tetris* is the unit of write I/O sent from WAFL to a RAID group,
composed of 64 consecutive stripes (paper section 4.2).  Tetrises
written to fragmented regions are inefficient because they contain
partial stripes; Figure 7 reports both blocks/s per disk and tetrises/s
per RAID group, so the simulator must count tetrises exactly.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..common.arrayops import sorted_unique
from ..common.constants import TETRIS_STRIPES

__all__ = ["tetris_ids", "count_tetrises", "TETRIS_STRIPES"]


def tetris_ids(stripes: np.ndarray) -> np.ndarray:
    """Distinct tetris indices touched by the given stripe indices."""
    stripes = np.asarray(stripes, dtype=np.int64)
    if stripes.size == 0:
        return np.empty(0, dtype=np.int64)
    return sorted_unique(stripes // TETRIS_STRIPES)


def count_tetrises(stripes: np.ndarray) -> int:
    """Number of distinct tetrises touched by the given stripe indices."""
    n = int(tetris_ids(stripes).size)
    if n:
        obs.count("raid.tetrises", n)
    return n
