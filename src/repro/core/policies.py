"""AA selection policies: the cache-backed policy and baselines.

The write allocator consumes allocation areas through the small
:class:`AASource` protocol, which lets every experiment swap selection
policies without touching allocation logic:

* :class:`~repro.core.cache.CacheSource` — either of the paper's AA
  caches behind the unified :class:`~repro.core.cache.AACache`
  protocol (with automatic background refill when a replenisher is
  supplied).
* :class:`RandomSource` — the "AA cache disabled" baseline of section
  4.1: AAs are picked at random, which is what selecting regions with
  no free-space guidance degenerates to ("randomly selected AAs average
  only 46% free space").
* :class:`LinearScanSource` — a first-fit cursor baseline (extension;
  FFS/ext-style next-fit behaviour) used in the ablation benchmarks.
"""

from __future__ import annotations

import enum
from typing import Protocol

import numpy as np

from ..common.errors import CacheError
from ..common.rng import make_rng

__all__ = [
    "PolicyKind",
    "AASource",
    "RandomSource",
    "LinearScanSource",
    "BitmapWalkSource",
]


class PolicyKind(enum.Enum):
    """AA selection policy for an allocation space (section 4.1
    comparisons)."""

    #: The paper's AA cache (max-heap or HBPS depending on topology).
    CACHE = "cache"
    #: "AA cache disabled": random AA selection.
    RANDOM = "random"
    #: First-fit cursor baseline (extension).
    LINEAR_SCAN = "linear"


class AASource(Protocol):
    """Protocol through which the write allocator obtains AAs."""

    def next_aa(self) -> int | None:
        """Check out the next AA to write into (None = none available)."""
        ...

    def return_aa(self, aa: int, score: int) -> None:
        """Return a checked-out AA whose score is unchanged."""
        ...

    def cp_flush(self, changes: np.ndarray, held: frozenset[int] = frozenset()) -> None:
        """Absorb CP-boundary ``(aa, old, new)`` score transitions (an
        ``(n, 3)`` array); AAs in ``held`` remain checked out by the
        allocator."""
        ...

    def best_score(self) -> int | None:
        """Best available score, or None when unknown (baselines)."""
        ...


class _ScoreBlindSource:
    """What the baselines share: they know no scores, so an AA is theirs
    to hand out again once returned or once a CP changes its score."""

    _out: set[int]

    def return_aa(self, aa: int, score: int) -> None:
        self._out.discard(aa)

    def cp_flush(self, changes: np.ndarray, held: frozenset[int] = frozenset()) -> None:
        self._out -= set(changes[:, 0].tolist()) - held

    def best_score(self) -> int | None:
        return None


class RandomSource(_ScoreBlindSource):
    """Baseline: uniformly random AA selection ("cache disabled").

    The source never proposes an AA it has already checked out, but it
    has no score knowledge; the allocator discards full AAs by
    returning them and asking again (bounded retries), which models a
    write allocator scanning arbitrary regions.
    """

    def __init__(self, num_aas: int, seed: int | np.random.Generator | None = None) -> None:
        if num_aas <= 0:
            raise CacheError("num_aas must be positive")
        self.num_aas = num_aas
        self.rng = make_rng(seed)
        self._out: set[int] = set()

    def next_aa(self) -> int | None:
        if len(self._out) >= self.num_aas:
            return None
        for _ in range(64):
            aa = int(self.rng.integers(self.num_aas))
            if aa not in self._out:
                self._out.add(aa)
                return aa
        # Dense checkout; fall back to the first available.
        for aa in range(self.num_aas):
            if aa not in self._out:
                self._out.add(aa)
                return aa
        return None


class BitmapWalkSource(_ScoreBlindSource):
    """Degraded-mode fallback: consult the bitmap directly per AA.

    Used while a file system's AA cache is being rebuilt after damage
    (:mod:`repro.faults`): the source walks AAs in ring order and only
    proposes AAs the bitmap says have free blocks, so allocation never
    fails while the cache is offline — at the cost of scanning bitmap
    bits on every selection (the very cost the caches exist to avoid;
    see paper section 2.5).
    """

    def __init__(self, topology, metafile) -> None:
        self.topology = topology
        self.metafile = metafile
        self._cursor = 0
        self._out: set[int] = set()
        #: AAs handed out while degraded (recovery metric).
        self.selects = 0
        #: Bitmap bits examined finding them (the degradation cost).
        self.bits_scanned = 0

    def next_aa(self) -> int | None:
        num = self.topology.num_aas
        if len(self._out) >= num:
            return None
        for _ in range(num):
            aa = self._cursor
            self._cursor = (self._cursor + 1) % num
            if aa in self._out:
                continue
            self.bits_scanned += self.topology.aa_blocks
            if self.topology.aa_score(self.metafile.bitmap, aa) > 0:
                self._out.add(aa)
                self.selects += 1
                return aa
        return None


class LinearScanSource(_ScoreBlindSource):
    """Baseline: first-fit cursor over the AA number space (extension).

    Walks AAs in order, wrapping around; models allocators that scan
    bitmaps linearly for the next region with free space.  Consulting
    AAs in order is cheap per step but keeps returning aged, mostly
    full regions on fragmented file systems.
    """

    def __init__(self, num_aas: int) -> None:
        if num_aas <= 0:
            raise CacheError("num_aas must be positive")
        self.num_aas = num_aas
        self._cursor = 0
        self._out: set[int] = set()

    def next_aa(self) -> int | None:
        if len(self._out) >= self.num_aas:
            return None
        for _ in range(self.num_aas):
            aa = self._cursor
            self._cursor = (self._cursor + 1) % self.num_aas
            if aa not in self._out:
                self._out.add(aa)
                return aa
        return None
