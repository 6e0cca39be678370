"""AllocSpace: one VBN number space and everything that searches it.

The paper has one idea here, stated once: a number space carved into
allocation areas (section 3.1), a per-AA score kept current by batched
deltas, a cache over those scores — the RAID-aware max-heap (3.3.1)
for stripe topologies, the RAID-agnostic HBPS (3.3.2) for linear ones,
persisted as a TopAA page (3.4) — and a write allocator that "picks an
AA and then assigns all free VBNs from the AA in sequential order".

:class:`AllocSpace` owns all of it — topology, bitmap metafile,
delayed-free log, score keeper, cache, source, allocator — plus the
lifecycle every such space shares: degraded allocation while the cache
is offline, cache adoption/rebuild, the fault-aware metafile read, the
delayed-free application and the per-CP counter deltas.  FlexVols, RAID
groups and linear stores subclass it and add only what is theirs (maps
and snapshots; devices and stripe pricing; the object device); their
one behavioural difference in this module is the fault-semantics hook
:meth:`AllocSpace._check_media`.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..bitmap.metafile import BitmapMetafile
from ..common.errors import MediaError, TransientIOError
from .aa import AATopology, StripeAATopology
from .allocator import LinearAllocator, RAIDGroupAllocator
from .cache import AACache, CacheSource, make_aa_cache
from .delayed_frees import DelayedFreeLog
from .policies import (
    AASource,
    BitmapWalkSource,
    LinearScanSource,
    PolicyKind,
    RandomSource,
)
from .score import ScoreKeeper
from .topaa import (
    PAGE_KIND_HBPS,
    PAGE_KIND_HEAP_SEED,
    load_hbps_cache,
    seal_page,
    seed_heap_cache,
    serialize_hbps_cache,
    serialize_heap_seed,
    unseal_page,
)

__all__ = ["AllocSpace"]


def _replenish(metafile: BitmapMetafile, topology: AATopology) -> np.ndarray:
    """The background replenish: walks every bitmap metafile block."""
    metafile.note_scan_read()
    return topology.scores_from_bitmap(metafile.bitmap)


class AllocSpace:
    """A VBN space carved into AAs, with its score keeper, AA cache and
    write allocator.

    The cache and allocator kind follow the topology: stripe topologies
    get the heap cache and a :class:`RAIDGroupAllocator`; linear ones
    get the HBPS cache, a :class:`LinearAllocator` and the bitmap-walk
    replenisher.
    ``offset`` is added to local VBNs to form aggregate-wide VBNs.
    """

    def __init__(
        self,
        topology: AATopology,
        *,
        where: str,
        policy: PolicyKind = PolicyKind.CACHE,
        seed: int | np.random.Generator | None = None,
        offset: int = 0,
    ) -> None:
        self.topology = topology
        #: Iron/faults addressing label ("vol:<name>", "group:<i>",
        #: "store"); injector targets match it.
        self.where = where
        self.offset = offset
        self._striped = isinstance(topology, StripeAATopology)
        self.metafile = BitmapMetafile(topology.nblocks)
        self.delayed_frees = DelayedFreeLog()
        self.keeper = ScoreKeeper(topology)  # a new metafile is all free
        #: Attached :class:`repro.faults.FaultInjector` (None = no faults).
        self.injector = None
        #: When set, each CP applies delayed frees for at most this many
        #: metafile blocks, chosen fullest-first by the log's HBPS (the
        #: paper's "delayed-free scores" use of HBPS); None = apply all.
        self.free_budget_blocks: int | None = None
        cache = None
        source: AASource
        if policy is PolicyKind.CACHE:
            cache = make_aa_cache(topology, self.keeper.scores)
            source = self._cache_source(cache)
        elif policy is PolicyKind.RANDOM:
            source = RandomSource(topology.num_aas, seed)
        else:
            source = LinearScanSource(topology.num_aas)
        self._bind(source, cache, degraded=False)

    # ------------------------------------------------------------------
    # Binding: source + cache + allocator
    # ------------------------------------------------------------------
    def _bind(self, source: AASource, cache: AACache | None, *, degraded: bool) -> None:
        """Point a fresh allocator at ``source`` — the only place that
        happens, so the per-CP delta baselines restart with it."""
        self.source = source
        self.cache = cache
        allocator_cls = RAIDGroupAllocator if self._striped else LinearAllocator
        self.allocator = allocator_cls(
            self.topology, self.metafile, source, self.keeper, store_offset=self.offset
        )
        self._last_cache_ops = 0
        self._last_aa_switches = 0
        self._last_spans = 0
        #: True while allocation runs on the direct bitmap walk (cache
        #: offline during repair; see :meth:`enter_degraded`).
        self.degraded_alloc = degraded

    def _cache_source(self, cache: AACache) -> CacheSource:
        # Only HBPS runs dry (its list page holds the best ~1,000 AAs);
        # the heap tracks every AA and never needs the background walk.
        if self._striped:
            return CacheSource(cache)
        # Bound to the metafile and topology, not ``self``: a space must
        # stay free of reference cycles so dropping a simulator releases
        # its (large) arrays at once.  A ``partial`` rather than a
        # closure because deepcopy and pickle treat functions as atoms:
        # a copied space must scan (and charge) its *own* bitmap.
        return CacheSource(cache, partial(_replenish, self.metafile, self.topology))

    def bitmap_scores(self) -> np.ndarray:
        """Authoritative per-AA scores recomputed from the bitmap."""
        return self.topology.scores_from_bitmap(self.metafile.bitmap)

    def enter_degraded(self) -> None:
        """Serve allocations from a direct bitmap walk while the AA
        cache is offline (being rebuilt after damage).  The current AA
        is released; no allocation fails while degraded."""
        self.allocator.release()
        self._bind(BitmapWalkSource(self.topology, self.metafile), None, degraded=True)

    def adopt_cache(self, cache: AACache, scores: np.ndarray | None = None) -> None:
        """Install a freshly built (possibly TopAA-seeded) cache after a
        remount or repair, with a new allocator bound to it.

        The score keeper is rebuilt as a side effect — from ``scores``
        when the caller has just walked the bitmap for them (one walk
        per space), else unread (:meth:`ScoreKeeper.unread`): as in
        WAFL, each AA's score is restored from the bitmap when first
        needed, so a TopAA mount walks no bitmap and mount-time
        measurements charge only the cache-build I/O (see
        :mod:`repro.fs.mount`).
        """
        if scores is None:
            self.keeper = ScoreKeeper.unread(self.topology, self.metafile.bitmap)
        else:
            self.keeper = ScoreKeeper(self.topology, scores=scores)
        self._bind(self._cache_source(cache), cache, degraded=False)

    def rebuild_cache(self, scores: np.ndarray | None = None) -> None:
        """Build this space's kind of cache from ``scores`` (default: a
        bitmap recompute) and adopt it with a keeper on the same scores."""
        if scores is None:
            scores = self.bitmap_scores()
        self.adopt_cache(make_aa_cache(self.topology, scores), scores)

    # ------------------------------------------------------------------
    # TopAA persistence (paper section 3.4)
    # ------------------------------------------------------------------
    def topaa_page(self) -> bytes | None:
        """This space's sealed TopAA page: one block seeding the heap
        with the best AAs (derived from the keeper's scores), or the
        HBPS cache's own two blocks; None for a cache-less linear space.
        """
        if self._striped:
            payload, kind = serialize_heap_seed(self.keeper.scores), PAGE_KIND_HEAP_SEED
        elif self.cache is None:
            return None
        else:
            payload, kind = serialize_hbps_cache(self.cache), PAGE_KIND_HBPS
        return seal_page(payload, kind, self.topology.num_aas)

    def adopt_topaa_page(self, blob: bytes) -> int:
        """Verify ``blob`` and adopt the seeded cache it describes;
        returns the 4 KiB blocks read.  Raises
        :class:`~repro.common.errors.SerializationError` — installing
        nothing — when the page fails verification."""
        num_aas = self.topology.num_aas
        if self._striped:
            payload = unseal_page(blob, PAGE_KIND_HEAP_SEED, num_aas)
            self.adopt_cache(seed_heap_cache(num_aas, payload, aa_blocks=self.topology.aa_blocks))
            return 1
        payload = unseal_page(blob, PAGE_KIND_HBPS, num_aas)
        self.adopt_cache(load_hbps_cache(payload, num_aas))
        return 2

    @property
    def cache_seeded(self) -> bool:
        """True while the cache runs on a TopAA seed that the background
        bitmap walk (:meth:`complete_cache`) has yet to complete — even
        a heap seed that names every AA, whose scores may be stale."""
        return self.cache is not None and self.cache.seeded

    def complete_cache(self) -> tuple[int, int]:
        """Finish a seeded cache from the bitmap: refill the heap, or
        replenish HBPS, with exact scores.  Returns ``(heap AAs
        populated, HBPS caches refreshed)``."""
        cache = self.cache
        unnamed = cache.num_aas - cache.known_count if self._striped else 0
        self.keeper.recompute(self.metafile.bitmap)
        cache.refill(self.keeper.scores)
        return (unnamed, 0) if self._striped else (0, 1)

    # ------------------------------------------------------------------
    # Fault injection (:mod:`repro.faults`)
    # ------------------------------------------------------------------
    def attach_injector(self, injector) -> None:
        """Attach a :class:`repro.faults.FaultInjector` to this space's
        metafile read path."""
        self.injector = injector

    def read_metafile(self) -> int:
        """Fault-aware whole bitmap-metafile read (cache rebuild walks,
        scrub).

        Armed transient faults raise :class:`TransientIOError` (callers
        retry with backoff); media damage the space cannot absorb
        raises :class:`MediaError` — the signal that escalates to Iron
        (see :meth:`_check_media`).  Returns the metafile blocks read.
        """
        n = self.metafile.metafile_block_count
        inj = self.injector
        if inj is not None and inj.consume(self.where, "transient-read"):
            raise TransientIOError(f"{self.where}: transient metafile read failure")
        self._check_media(n)
        return self.metafile.note_scan_read(n)

    def _check_media(self, n: int) -> None:
        """Fault semantics of an ``n``-block metafile read.

        Default (a FlexVol): the blocks live inside the aggregate, whose
        RAID layer reconstructs ordinary latent sector errors
        transparently, so only armed unreconstructable damage surfaces.
        """
        inj = self.injector
        if inj is not None and inj.consume(self.where, "unreconstructable"):
            raise MediaError(
                f"{self.where}: metafile blocks damaged beyond RAID reconstruction"
            )

    # ------------------------------------------------------------------
    # CP boundary pieces
    # ------------------------------------------------------------------
    @property
    def free_count(self) -> int:
        """Free blocks, net of the allocator's pending-span batch."""
        return self.metafile.free_count - self.allocator.pending_count

    def apply_frees(self) -> np.ndarray:
        """Apply this space's delayed frees (all of them, or the
        budgeted fullest-first subset); returns the VBNs freed.  The
        allocator's pending span is synced first: a same-CP
        write-then-delete frees a just-allocated VBN, whose bit must be
        set before the free clears it."""
        self.allocator.flush_pending()
        if self.free_budget_blocks is None:
            freed = self.delayed_frees.apply_all(self.metafile)
        else:
            freed = self.delayed_frees.apply_best(
                self.metafile, self.free_budget_blocks
            )
        if freed.size:
            self.keeper.note_free(freed)
        return freed

    def drain_cp(self) -> tuple[int, int, int, int]:
        """``(metafile_blocks, cache_ops, aa_switches, spanned_blocks)``
        accrued since the last CP."""
        ops = self.cache.maintenance_ops if self.cache is not None else 0
        switches = len(self.allocator.selected_aa_scores)
        spans = self.allocator.spanned_blocks
        deltas = (
            self.metafile.drain_dirty(),
            ops - self._last_cache_ops,
            switches - self._last_aa_switches,
            spans - self._last_spans,
        )
        self._last_cache_ops = ops
        self._last_aa_switches = switches
        self._last_spans = spans
        return deltas

    def reset_selection_trace(self) -> None:
        """Forget the AAs selected so far (measurement phases start
        clean after aging; bitmap/cache state is untouched)."""
        self.allocator.selected_aa_scores.clear()
        self.allocator.blocks_allocated = 0
        self._last_aa_switches = 0

    def selected_aa_free_fractions(self) -> np.ndarray:
        """Free fraction of every AA at the moment it was selected
        (the section 4.1 trace)."""
        cap = self.topology.aa_blocks
        return np.asarray(
            [s / cap for s in self.allocator.selected_aa_scores], dtype=np.float64
        )
