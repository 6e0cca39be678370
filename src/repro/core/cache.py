"""The unified AA-cache protocol and its allocator-facing adapter.

Both of the paper's caches — the RAID-aware max-heap (section 3.3.1)
and the RAID-agnostic HBPS (section 3.3.2) — grew their own method
names and keyword-divergent constructors.  This module redesigns that
surface into one :class:`AACache` protocol:

* ``select()`` — check out the (close-to-)best AA;
* ``invalidate(aa, score)`` — return a checked-out AA;
* ``consume(changes, held)`` — absorb CP-boundary score transitions;
* ``refill(scores)`` — authoritative rebuild from a bitmap walk;
* ``stats()`` — counter snapshot for CPU accounting and tracing;

plus the ``needs_refill`` probe and ``best_available_score()`` used by
the allocator's fragmentation cutoff.  :func:`make_aa_cache` is the
single constructor: it picks the implementation from the AA topology
(HBPS at the paper's constants: 1K-wide bins, a 1,000-entry list —
section 3.3.2's "two pages").  :class:`CacheSource` adapts any
:class:`AACache` to the write allocator's ``AASource`` protocol (one
class where there used to be two) and owns the background-refill
trigger.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np

from .. import obs
from .aa import AATopology, StripeAATopology
from .hbps_cache import RAIDAgnosticAACache
from .heap_cache import RAIDAwareAACache
from .score import ScoreChanges

__all__ = ["AACache", "CacheSource", "make_aa_cache"]


@runtime_checkable
class AACache(Protocol):
    """What the allocator pipeline requires of an AA cache."""

    num_aas: int

    def select(self) -> int | None:
        """Check out the best (or close-to-best) AA, or ``None``."""
        ...

    def invalidate(self, aa: int, score: int) -> None:
        """Return a checked-out AA at the given score."""
        ...

    def consume(self, changes: ScoreChanges, held: frozenset[int] = frozenset()) -> None:
        """Absorb one CP's ``(aa, old, new)`` transitions — distinct,
        in-range AAs, validated whole before anything moves; AAs in
        ``held`` stay checked out."""
        ...

    def refill(self, scores: np.ndarray) -> None:
        """Authoritative rebuild from a full per-AA score array."""
        ...

    def best_available_score(self) -> int | None:
        """Best selectable score (bin resolution for HBPS), or None."""
        ...

    def stats(self) -> dict[str, int]:
        """Counter snapshot; must include ``selects`` and
        ``maintenance_ops`` (the CP CPU-accounting input)."""
        ...

    @property
    def needs_refill(self) -> bool:
        """True when a background refill would yield more AAs."""
        ...

    @property
    def checked_out(self) -> frozenset[int]:
        """AAs currently handed to the allocator."""
        ...

    @property
    def maintenance_ops(self) -> int:
        """Running maintenance-operation count (monotone)."""
        ...


class CacheSource:
    """Adapter: any :class:`AACache` -> the allocator's ``AASource``.

    ``replenisher`` supplies authoritative scores for a full
    refill — the background bitmap-metafile walk that runs when the
    allocator drains the cache faster than frees repopulate it (paper
    section 3.3.2); the callable is charged for its own metafile I/O.
    """

    def __init__(
        self,
        cache: AACache,
        replenisher: Callable[[], np.ndarray] | None = None,
    ) -> None:
        self.cache = cache
        self.replenisher = replenisher
        #: Number of background refills triggered (metric).
        self.replenish_count = 0

    def next_aa(self) -> int | None:
        aa = self.cache.select()
        if aa is None and self.cache.needs_refill and self.replenisher is not None:
            with obs.span("cache.refill", num_aas=self.cache.num_aas):
                self.cache.refill(self.replenisher())
            obs.count("cache.refills")
            self.replenish_count += 1
            aa = self.cache.select()
        return aa

    def return_aa(self, aa: int, score: int) -> None:
        self.cache.invalidate(aa, score)

    def cp_flush(self, changes: ScoreChanges, held: frozenset[int] = frozenset()) -> None:
        with obs.span("cache.consume", changes=len(changes)):
            self.cache.consume(changes, held)

    def best_score(self) -> int | None:
        return self.cache.best_available_score()


def make_aa_cache(
    topology: AATopology,
    scores: np.ndarray | None = None,
) -> RAIDAwareAACache | RAIDAgnosticAACache:
    """Build the right AA cache for a topology.

    Stripe (RAID-group) topologies get the exact max-heap cache;
    linear (RAID-agnostic/FlexVol) topologies get the constant-memory
    HBPS cache at the paper's bin width and list capacity.
    """
    if isinstance(topology, StripeAATopology):
        return RAIDAwareAACache(topology.num_aas, scores)
    return RAIDAgnosticAACache(topology.num_aas, topology.aa_blocks, scores)
