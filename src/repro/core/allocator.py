"""The WAFL write allocator: assigning free VBNs from selected AAs.

"In all cases, the write allocator picks an AA and then assigns all
free VBNs from the AA in sequential order." (paper section 3.1)

Two allocators share that skeleton:

* :class:`LinearAllocator` — RAID-agnostic spaces (FlexVol virtual
  VBNs, object-store physical VBNs).  Free VBNs are assigned in
  ascending order, so consecutive allocations stay within the same
  bitmap-metafile block (paper section 2.5).
* :class:`RAIDGroupAllocator` — one per RAID group.  Free VBNs are
  assigned stripe-major so stripes fill completely (full stripe
  writes) and per-device runs stay contiguous (long write chains).

:class:`AggregateAllocator` coordinates the RAID-group allocators:
WAFL "attempts to write to all RAID groups available in an aggregate in
order to maximize the total write throughput" (paper section 3.3.1),
taking tetris-sized batches of stripes from each group in turn.
Fragmented groups naturally yield fewer blocks per stripe, which
reproduces the write bias of section 4.2, and groups whose best AA
score falls below a threshold are skipped entirely (section 3.3.1's
fragmentation cutoff).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .. import obs
from ..bitmap.metafile import BitmapMetafile
from ..common.constants import TETRIS_STRIPES
from .aa import LinearAATopology, StripeAATopology
from .policies import AASource
from .score import ScoreKeeper

__all__ = ["LinearAllocator", "RAIDGroupAllocator", "AggregateAllocator"]

#: Bound on consecutive full AAs a source may propose before the
#: allocator declares the space dry (only score-blind baselines like
#: RandomSource ever propose full AAs).
_MAX_FULL_AA_RETRIES = 128


class _BaseAllocator:
    """Shared machinery: current-AA queue, CP release/flush protocol.

    Bitmap and score updates are *pending-span batched*: taking blocks
    from the current AA's queue only advances a cursor, and the whole
    contiguous span taken since the last flush hits the bitmap metafile
    (one ``allocate`` scatter) and the score keeper (one delta) at the
    next synchronization point — AA exhaustion, ``release``, or the CP
    boundary ``cp_flush``.  This is exact, not approximate: AAs are
    disjoint, the queue is a point-in-time snapshot of the AA's free
    VBNs, nothing reads the bitmap for the checked-out AA between
    flushes, and blocks allocated in a CP are never freed in the same
    CP, so the batched union of bit-sets and integer score deltas
    commutes with the per-chunk order (see DESIGN.md section 9;
    ``tests/fs/test_flush_identity.py`` pins it against a twin that
    flushes at the end of every allocation call).
    """

    def __init__(
        self,
        metafile: BitmapMetafile,
        source: AASource,
        keeper: ScoreKeeper,
        *,
        store_offset: int = 0,
    ) -> None:
        self.metafile = metafile
        self.source = source
        self.keeper = keeper
        #: Added to local VBNs to form global (aggregate-wide) VBNs.
        self.store_offset = int(store_offset)
        self._current_aa: int | None = None
        self._qv: np.ndarray | None = None  # free local VBNs of current AA
        self._pos = 0
        self._flushed_pos = 0  # queue position the bitmap reflects
        #: Score (free blocks) of each AA at the moment it was selected;
        #: the section 4.1 "average free space in chosen AAs" trace.
        self.selected_aa_scores: list[int] = []
        #: Total blocks allocated (metric).
        self.blocks_allocated = 0
        #: Total VBN-range span covered by allocations: the number of
        #: bitmap bits examined to find the allocated blocks.  Per
        #: allocated block this is ~1/density of the selected AA, which
        #: is the CPU-side benefit of picking emptier AAs (section 2.5).
        self.spanned_blocks = 0

    # ------------------------------------------------------------------
    @property
    def current_aa(self) -> int | None:
        """AA currently being filled, if any."""
        return self._current_aa

    @property
    def pending_count(self) -> int:
        """Blocks taken from the current AA but not yet reflected in
        the bitmap (the pending-span batch).  Observables that read the
        bitmap mid-CP (``free_count``, ``used_blocks``) add this so the
        batching is invisible to them."""
        return self._pos - self._flushed_pos

    def _queue_remaining(self) -> int:
        return 0 if self._qv is None else self._qv.size - self._pos

    def _load_free_vbns(self, aa: int) -> np.ndarray:
        raise NotImplementedError

    def _load_next_aa(self) -> bool:
        """Check out the next AA with free space; False when dry."""
        for _ in range(_MAX_FULL_AA_RETRIES):
            aa = self.source.next_aa()
            if aa is None:
                return False
            vbns = self._load_free_vbns(aa)
            if vbns.size == 0:
                self.source.return_aa(aa, 0)
                continue
            self._current_aa = aa
            self._qv = vbns
            self._pos = 0
            self._flushed_pos = 0
            self.selected_aa_scores.append(int(vbns.size))
            obs.count("alloc.aa_switch", aa=int(aa), score=int(vbns.size))
            self._after_load()
            return True
        return False

    def _after_load(self) -> None:
        """Hook for subclasses to index the fresh queue."""

    def flush_pending(self) -> None:
        """Apply the taken-but-unflushed queue span to the bitmap
        metafile and the score keeper as one batch."""
        if self._qv is None or self._flushed_pos >= self._pos:
            return
        span = self._qv[self._flushed_pos : self._pos]
        # The queue holds free VBNs of the current AA only: account
        # per-AA directly and skip re-validating the trusted batch.
        self.metafile.allocate(span, trusted=True)
        self.keeper.note_alloc_aa(self._current_aa, int(span.size))
        self._flushed_pos = self._pos

    def _drop_queue(self) -> None:
        self.flush_pending()
        self._current_aa = None
        self._qv = None
        self._pos = 0
        self._flushed_pos = 0

    # ------------------------------------------------------------------
    # CP boundary
    # ------------------------------------------------------------------
    def release(self) -> None:
        """Return the current AA to the cache (unmount / adoption path).

        The normal CP boundary does *not* release: WAFL keeps filling
        the selected AA across CPs until its free VBNs are exhausted
        ("assigns all free VBNs from the AA in sequential order",
        section 3.1).
        """
        if self._current_aa is None:
            return
        aa = self._current_aa
        self.flush_pending()
        self.source.return_aa(aa, self.keeper.effective_score(aa))
        self._drop_queue()

    def cp_flush(self) -> np.ndarray:
        """Run the CP-boundary protocol: apply batched score deltas and
        rebalance the AA cache, keeping the current AA checked out
        (paper section 3.3)."""
        self.flush_pending()
        changes = self.keeper.flush()
        held = (
            frozenset((self._current_aa,))
            if self._current_aa is not None
            else frozenset()
        )
        self.source.cp_flush(changes, held)
        return changes


class LinearAllocator(_BaseAllocator):
    """Sequential VBN assignment within RAID-agnostic AAs."""

    def __init__(
        self,
        topology: LinearAATopology,
        metafile: BitmapMetafile,
        source: AASource,
        keeper: ScoreKeeper,
        *,
        store_offset: int = 0,
    ) -> None:
        super().__init__(metafile, source, keeper, store_offset=store_offset)
        self.topology = topology

    def _load_free_vbns(self, aa: int) -> np.ndarray:
        return self.topology.free_vbns(self.metafile.bitmap, aa)

    def allocate(self, n: int) -> np.ndarray:
        """Allocate up to ``n`` blocks; returns their global VBNs.

        Fewer than ``n`` are returned only when the space is out of
        free blocks reachable through the source.
        """
        out: list[np.ndarray] = []
        got = 0
        while got < n:
            if self._queue_remaining() == 0:
                self._drop_queue()
                if not self._load_next_aa():
                    break
            take = min(n - got, self._queue_remaining())
            chunk = self._qv[self._pos : self._pos + take]
            self._pos += take
            got += take
            self.spanned_blocks += int(chunk[-1] - chunk[0]) + 1
            out.append(chunk)
        self.blocks_allocated += got
        if not out:
            return np.empty(0, dtype=np.int64)
        result = np.concatenate(out)
        if self.store_offset:
            result = result + self.store_offset
        return result


class RAIDGroupAllocator(_BaseAllocator):
    """Stripe-major VBN assignment within one RAID group's AAs."""

    def __init__(
        self,
        topology: StripeAATopology,
        metafile: BitmapMetafile,
        source: AASource,
        keeper: ScoreKeeper,
        *,
        store_offset: int = 0,
    ) -> None:
        super().__init__(metafile, source, keeper, store_offset=store_offset)
        self.topology = topology
        self._starts: np.ndarray | None = None  # stripe-group starts in queue
        self._starts_list: list[int] = []  # same, as ints for bisect
        # Geometry constants hoisted out of the per-round hot loop.
        self._blocks_per_disk = int(topology.geometry.blocks_per_disk)
        self._ndata = int(topology.geometry.ndata)

    def _load_free_vbns(self, aa: int) -> np.ndarray:
        return self.topology.free_vbns(self.metafile.bitmap, aa)

    def _after_load(self) -> None:
        stripes = self.topology.geometry.dbn_of(self._qv)
        change = np.flatnonzero(np.diff(stripes) != 0) + 1
        self._starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), change, np.asarray([self._qv.size]))
        )
        self._starts_list = self._starts.tolist()

    def best_score(self) -> int | None:
        """Best available AA score of this group (cache view)."""
        return self.source.best_score()

    def take_stripe_chunks(
        self, out: list[np.ndarray], max_stripes: int, max_blocks: int
    ) -> int:
        """Allocate free blocks from up to ``max_stripes`` stripes (and
        at most ``max_blocks`` blocks) of the current AA, loading the
        next AA when exhausted, appending queue-slice views of *local*
        (group-relative) VBNs to ``out`` — the aggregate round-robin
        loop calls this once per tetris round and defers all copying to
        one final concatenate.  Returns the blocks taken.

        Stripes that contain no free blocks cost nothing and are
        skipped implicitly — only stripes with assignable blocks count
        against ``max_stripes``.
        """
        stripes_taken = 0
        blocks_taken = 0
        bpd = self._blocks_per_disk
        while stripes_taken < max_stripes and blocks_taken < max_blocks:
            qv = self._qv
            if qv is None or qv.size == self._pos:
                self._drop_queue()
                if not self._load_next_aa():
                    break
                qv = self._qv
            # Locate the stripe group containing the current position.
            # Plain-int bisect over the cached starts list: this loop
            # runs ~once per tetris per group per CP, so scalar NumPy
            # searchsorted overhead here dominated whole-run profiles.
            starts = self._starts_list
            lo = self._pos
            g = bisect_right(starts, lo) - 1
            ngroups = len(starts) - 1
            k = min(max_stripes - stripes_taken, ngroups - g)
            hi = starts[g + k]
            if hi - lo > max_blocks - blocks_taken:
                hi = lo + (max_blocks - blocks_taken)
            chunk = qv[lo:hi]
            self._pos = hi
            # Count the distinct stripes actually consumed.
            consumed_g = bisect_right(starts, hi - 1) - 1
            stripes_taken += consumed_g - g + 1
            blocks_taken += hi - lo
            # Bitmap range examined: the consumed stripe span on every
            # data disk (stripe-major assignment scans all disks' bits
            # for those stripes).
            first_dbn = int(qv[lo]) % bpd
            last_dbn = int(qv[hi - 1]) % bpd
            self.spanned_blocks += (last_dbn - first_dbn + 1) * self._ndata
            out.append(chunk)
        self.blocks_allocated += blocks_taken
        return blocks_taken


class AggregateAllocator:
    """Coordinates per-RAID-group allocators for one aggregate.

    Parameters
    ----------
    spaces:
        One RAID-group allocation space per group (anything exposing
        ``.allocator``, a :class:`RAIDGroupAllocator`).  Each group's
        *current* allocator is resolved through its space on every
        call, so a space that rebinds (cache adoption, degraded mode)
        is followed without any aggregate-level refresh.
    threshold_fraction:
        Fragmentation cutoff: a group whose best AA score is below
        ``threshold_fraction * aa_blocks`` is skipped while any other
        group remains above it (paper section 3.3.1).  0 disables the
        cutoff.

    Each round-robin turn takes one tetris (:data:`TETRIS_STRIPES`
    stripes, the RAID write unit) from each group.
    """

    def __init__(
        self,
        spaces: list,
        *,
        threshold_fraction: float = 0.0,
    ) -> None:
        if not spaces:
            raise ValueError("need at least one RAID group space")
        self.spaces = spaces
        self.threshold_fraction = float(threshold_fraction)
        #: Count of group-skips due to the fragmentation cutoff (metric).
        self.threshold_skips = 0

    # ------------------------------------------------------------------
    @property
    def groups(self) -> list[RAIDGroupAllocator]:
        """Each group's current allocator."""
        return [s.allocator for s in self.spaces]

    def _active_mask(self) -> list[bool]:
        """Apply the fragmentation cutoff across groups."""
        if self.threshold_fraction <= 0.0:
            return [True] * len(self.spaces)
        groups = self.groups
        scores = [g.best_score() for g in groups]
        above = [
            s is None or s >= self.threshold_fraction * g.topology.aa_blocks
            for g, s in zip(groups, scores)
        ]
        if any(above):
            self.threshold_skips += above.count(False)
            return above
        # Every group is fragmented: write anyway rather than stall.
        return [True] * len(self.spaces)

    def allocate(self, n: int) -> np.ndarray:
        """Allocate up to ``n`` blocks across RAID groups; returns
        global VBNs.  Groups are visited round-robin in tetris-sized
        stripe batches so every group's devices stay busy.
        """
        if n <= 0:
            return np.empty(0, dtype=np.int64)
        out: list[np.ndarray] = []
        offs: list[int] = []
        lens: list[int] = []
        got = 0
        dry = [not a for a in self._active_mask()]
        groups = self.groups
        while got < n and not all(dry):
            for gi, galloc in enumerate(groups):
                if dry[gi] or got >= n:
                    continue
                base = len(out)
                taken = galloc.take_stripe_chunks(out, TETRIS_STRIPES, n - got)
                if taken == 0:
                    dry[gi] = True
                    continue
                got += taken
                off = galloc.store_offset
                for c in out[base:]:
                    offs.append(off)
                    lens.append(c.size)
        if not out:
            return np.empty(0, dtype=np.int64)
        # Localize: offsets are added once on the concatenated result
        # instead of allocating a shifted copy per tetris-sized chunk.
        result = np.concatenate(out)
        if any(offs):
            result += np.repeat(
                np.asarray(offs, dtype=np.int64), np.asarray(lens)
            )
        return result

    def cp_flush(self) -> list[np.ndarray]:
        """Run the CP-boundary protocol on every group allocator."""
        return [g.cp_flush() for g in self.groups]
