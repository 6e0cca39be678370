"""RAID-agnostic allocation-area cache built on HBPS.

For FlexVol virtual VBNs and natively redundant physical storage, "the
selection of the single best AA is not worth the memory overhead
associated with the max-heap approach ... we needed a data structure
that efficiently provided AAs with close-to-best scores, but used a
finite amount of memory even when tracking millions of AAs" (paper
section 3.3.2).  :class:`RAIDAgnosticAACache` wraps
:class:`~repro.core.hbps.HBPS` with the AA-cache protocol used by the
write allocator:

* :meth:`pop_best` checks an AA out (guaranteed within one histogram
  bin — 3.125% of the maximum score — of the best tracked AA);
* :meth:`apply_changes` absorbs CP-boundary score transitions;
* :meth:`replenish` performs the background bitmap-walk refill when the
  list page runs dry;
* :meth:`to_pages` / :meth:`from_pages` persist the cache into the two
  4 KiB blocks of its TopAA metafile (paper section 3.4).
"""

from __future__ import annotations

import numpy as np

from ..common.constants import HBPS_BIN_WIDTH, HBPS_LIST_CAPACITY
from ..common.errors import CacheError
from .hbps import HBPS
from .score import ScoreChanges, as_changes

__all__ = ["RAIDAgnosticAACache"]


class RAIDAgnosticAACache:
    """HBPS-backed AA cache for one RAID-agnostic VBN space.

    Parameters
    ----------
    num_aas:
        Total AAs in the VBN space.
    aa_blocks:
        AA capacity in blocks (the maximum score).
    scores:
        When given, the cache is fully built from this array.  When
        ``None`` the cache starts empty and must be seeded
        (:meth:`from_pages`) or replenished.
    bin_width, list_capacity:
        HBPS tuning (paper defaults: 1K-wide bins, 1,000 entries).
    hbps:
        When given, the cache wraps this already-built HBPS (of
        ``aa_blocks`` maximum score) instead of a new empty one.
    """

    __slots__ = ("num_aas", "aa_blocks", "_hbps", "_out", "_seeded", "_assumed", "selects")

    def __init__(
        self,
        num_aas: int,
        aa_blocks: int,
        scores: np.ndarray | None = None,
        *,
        bin_width: int = HBPS_BIN_WIDTH,
        list_capacity: int = HBPS_LIST_CAPACITY,
        hbps: HBPS | None = None,
    ) -> None:
        if num_aas <= 0:
            raise CacheError("num_aas must be positive")
        self.num_aas = int(num_aas)
        self.aa_blocks = int(aa_blocks)
        if hbps is None:
            bin_width = min(bin_width, aa_blocks)
            hbps = HBPS(aa_blocks, bin_width=bin_width, list_capacity=list_capacity)
        self._hbps = hbps
        self._out: set[int] = set()
        #: True after loading from TopAA pages, until the background
        #: rebuild supplies exact scores; histogram counts for unlisted
        #: AAs are stale during this window, exactly as in WAFL.
        self._seeded = False
        #: While seeded: the bin-resolution score the HBPS believes for
        #: each *listed* AA (needed to route updates to the right bin).
        self._assumed: dict[int, int] = {}
        #: AAs handed out (metric).
        self.selects = 0
        if scores is not None:
            if len(scores) != self.num_aas:
                raise CacheError("scores length does not match num_aas")
            self._hbps.build(np.arange(self.num_aas), scores)

    # ------------------------------------------------------------------
    @property
    def hbps(self) -> HBPS:
        """The underlying HBPS (exposed for metrics and tests)."""
        return self._hbps

    @property
    def seeded(self) -> bool:
        """Whether the cache is running on TopAA seed data only."""
        return self._seeded

    @property
    def needs_replenish(self) -> bool:
        """True when the HBPS list ran dry while AAs remain tracked."""
        return self._hbps.needs_replenish

    @property
    def checked_out(self) -> frozenset[int]:
        """AAs currently handed to the allocator."""
        return frozenset(self._out)

    @property
    def memory_bytes(self) -> int:
        """Modeled memory: the HBPS's two 4 KiB pages, independent of
        ``num_aas`` (the paper's headline property)."""
        return self._hbps.memory_bytes

    # ------------------------------------------------------------------
    # Allocator-facing operations
    # ------------------------------------------------------------------
    def pop_best(self) -> int | None:
        """Check out a close-to-best AA, or ``None`` when the list page
        is empty (check :attr:`needs_replenish` to see whether a
        background refill would produce more)."""
        popped = self._hbps.pop_best()
        if popped is None:
            return None
        aa, b = popped
        if self._seeded:
            self._assumed.pop(aa, None)
        self._out.add(aa)
        self.selects += 1
        return aa

    def best_bin_score(self) -> int | None:
        """Upper-bound score of the best listed AA (bin resolution)."""
        best = self._hbps.peek_best()
        if best is None:
            return None
        _aa, b = best
        return self._hbps.bin_bounds(b)[1]

    def return_aa(self, aa: int, score: int) -> None:
        """Return a checked-out AA whose score did not change."""
        if aa not in self._out:
            raise CacheError(f"AA {aa} is not checked out")
        self._out.discard(aa)
        self._hbps.insert(aa, score)
        if self._seeded:
            self._assumed[aa] = score

    # ------------------------------------------------------------------
    # CP boundary, replenish, persistence
    # ------------------------------------------------------------------
    def apply_changes(self, changes: ScoreChanges, held: frozenset[int] = frozenset()) -> None:
        """Absorb CP-boundary ``(aa, old, new)`` score transitions, as
        one batch (:meth:`HBPS.update_many`) refused whole if invalid.

        Checked-out AAs re-enter with their new scores — except those
        in ``held``, which the allocator keeps filling across CPs;
        tracked AAs move bins in constant time (paper section 3.3.2).
        While seeded, transitions for unlisted AAs are dropped — their
        histogram counts are stale until the background rebuild,
        matching WAFL — and listed AAs move from their assumed scores.
        """
        if not len(changes):
            return  # nothing moved this CP
        rows = as_changes(changes, self.num_aas)
        aas = rows[0].tolist()
        back = self._out.intersection(aas)  # checked out: these re-enter,
        stay = held & back  # bar those still being filled (they re-enter via return_aa)
        if stay:
            if len(stay) == len(aas):
                return
            rows = rows.take([i for i, aa in enumerate(aas) if aa not in stay], axis=1)
            back.difference_update(stay)
        if self._seeded:
            # Nothing is evicted while seeded: the AAs listed now are those that move.
            rows = rows[:, [aa in back or self._hbps.is_listed(aa) for aa in rows[0].tolist()]]
            rows[1] = [self._assumed.get(aa, 0) for aa in rows[0].tolist()]
        if not rows.size:
            return
        self._hbps.update_many(rows, back)
        self._out.difference_update(back)
        if self._seeded:  # an entry outlives its AA's listing unread
            self._assumed.update(zip(rows[0].tolist(), rows[2].tolist()))

    # ------------------------------------------------------------------
    # AACache protocol (see :mod:`repro.core.cache`)
    # ------------------------------------------------------------------
    def select(self) -> int | None:
        """Protocol alias of :meth:`pop_best`."""
        return self.pop_best()

    def consume(self, changes: ScoreChanges, held: frozenset[int] = frozenset()) -> None:
        """Protocol alias of :meth:`apply_changes`."""
        self.apply_changes(changes, held)

    def invalidate(self, aa: int, score: int) -> None:
        """Protocol alias of :meth:`return_aa` (the score routes the AA
        back into the right histogram bin)."""
        self.return_aa(aa, score)

    def refill(self, scores: np.ndarray) -> None:
        """Protocol alias of :meth:`replenish`."""
        self.replenish(scores)

    def best_available_score(self) -> int | None:
        """Protocol alias of :meth:`best_bin_score`."""
        return self.best_bin_score()

    @property
    def needs_refill(self) -> bool:
        """Protocol alias of :attr:`needs_replenish`."""
        return self.needs_replenish

    @property
    def maintenance_ops(self) -> int:
        """Cache maintenance operations charged to CP CPU time."""
        h = self._hbps
        return h.pops + h.updates + h.evictions

    def stats(self) -> dict[str, int]:
        """Counter snapshot (protocol accessor)."""
        h = self._hbps
        return {
            "selects": self.selects,
            "maintenance_ops": self.maintenance_ops,
            "pops": h.pops,
            "updates": h.updates,
            "evictions": h.evictions,
            "checked_out": len(self._out),
            "tracked": h.total_count,
            "memory_bytes": self.memory_bytes,
        }

    def replenish(self, scores: np.ndarray) -> None:
        """Full rebuild from authoritative ``scores`` (the background
        bitmap-metafile walk).  Checked-out AAs stay out."""
        if len(scores) != self.num_aas:
            raise CacheError("scores length does not match num_aas")
        aas = np.arange(self.num_aas)
        if self._out:
            aas = np.delete(aas, sorted(self._out))
            scores = np.asarray(scores)[aas]
        self._hbps.build(aas, scores)
        self._seeded = False
        self._assumed.clear()

    def to_pages(self) -> bytes:
        """Serialize to the two 4 KiB TopAA blocks (HBPS layout)."""
        return self._hbps.to_pages()

    @classmethod
    def from_pages(
        cls,
        pages: bytes,
        num_aas: int,
        *,
        list_capacity: int = HBPS_LIST_CAPACITY,
    ) -> "RAIDAgnosticAACache":
        """Reconstruct a seeded cache from TopAA pages.

        Listed AAs are assumed to sit at their bin's upper bound until
        the background rebuild restores exact scores.
        """
        hbps = HBPS.from_pages(pages, list_capacity=list_capacity)
        cache = cls(max(num_aas, 1), hbps.max_score, hbps=hbps)
        cache._seeded = True
        listed = dict(hbps.iter_listed())  # AA -> its bin, in list-page order
        upper = {b: hbps.bin_bounds(b)[1] for b in dict.fromkeys(listed.values())}
        cache._assumed = dict(zip(listed, map(upper.__getitem__, listed.values())))
        return cache

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Test hook: HBPS invariants plus out-set disjointness."""
        self._hbps.check_invariants()
        for aa in sorted(self._out):
            if self._hbps.is_listed(aa):
                raise CacheError(f"checked-out AA {aa} still listed in HBPS")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RAIDAgnosticAACache(num_aas={self.num_aas}, tracked="
            f"{self._hbps.total_count}, out={len(self._out)}, seeded={self._seeded})"
        )
