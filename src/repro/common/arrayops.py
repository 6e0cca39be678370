"""Shared NumPy primitives for hot paths.

Profiling the CP pipeline under cProfile showed that
``np.unique`` on integer batches is dominated by its hash-table path.
On keys sorted by contract the run primitive :func:`run_starts` gives
the distinct keys and run bounds without it (:func:`sorted_unique` is
"sort, then mask"); a small key space (erase blocks, RAID groups) is a
bincount (:func:`group_counts`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["run_starts", "sorted_unique", "group_counts"]


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in 1-D
    ``keys`` (for sorted keys: of each distinct value)."""
    mask = np.empty(keys.size, dtype=bool)
    mask[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=mask[1:])
    return mask


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """Ascending unique values of an integer array.

    Equivalent to ``np.unique(a)`` but via an explicit sort + adjacent
    comparison, which is several times faster than NumPy's hash-based
    path for the 10K-100K-element batches a CP produces.
    """
    x = np.sort(a)
    return x[run_starts(x)]


def group_counts(keys: np.ndarray, nkeys: int) -> tuple[np.ndarray, np.ndarray]:
    """``(touched, counts)``: the distinct keys (ascending) and their
    multiplicities, for keys drawn from ``range(nkeys)``.

    Equivalent to ``np.unique(keys, return_counts=True)`` but via a
    bincount, which wins when the key space is small (erase blocks of
    one device, RAID groups of one store).
    """
    c = np.bincount(keys, minlength=nkeys)
    touched = np.flatnonzero(c)
    return touched, c[touched]
