"""Batched (delayed) frees, applied at consistency-point boundaries.

In WAFL, block frees produced by client overwrites and deletes are not
applied to the bitmap metafiles immediately: they are logged and applied
in batch at the CP boundary, which amortizes metafile block updates
(paper section 3.3, citing Kesavan et al.'s free-space reclamation
work).  The same reference notes that the HBPS structure "is used to
track delayed-free scores": when only part of the backlog can be
processed in one CP, WAFL prefers the metafile blocks with the most
pending frees, maximizing frees applied per metafile block touched.

:class:`DelayedFreeLog` implements both behaviours: :meth:`apply_all`
for the common full drain, and :meth:`apply_best` for HBPS-prioritized
partial application.
"""

from __future__ import annotations

import numpy as np

from ..bitmap.metafile import BitmapMetafile
from ..common.arrayops import run_starts, sorted_unique
from ..common.constants import BITS_PER_BITMAP_BLOCK
from ..common.errors import CacheError
from .hbps import HBPS

__all__ = ["DelayedFreeLog"]


class DelayedFreeLog:
    """Log of VBNs freed during a CP interval, grouped by metafile block.

    Parameters
    ----------
    bits_per_block:
        VBNs per metafile block (defines the grouping granularity and
        the HBPS maximum score).
    """

    __slots__ = (
        "bits_per_block",
        "_per_block",
        "_staged",
        "_pending",
        "_count_backlog",
        "_pending_total",
        "_hbps",
        "total_logged",
    )

    def __init__(self, *, bits_per_block: int = BITS_PER_BITMAP_BLOCK) -> None:
        self.bits_per_block = bits_per_block
        # Logged chunks, grouped by metafile block.  Grouping (a sort)
        # is deferred: `add` stages chunks ungrouped and only the
        # budgeted `apply_best` path — which needs per-block access —
        # triggers `_ensure_grouped`.  The full-drain `apply_all` never
        # pays for grouping at all.
        self._per_block: dict[int, list[np.ndarray]] = {}
        self._staged: list[np.ndarray] = []
        self._pending: dict[int, int] = {}
        # Chunks whose per-block counts / HBPS scores have not been
        # folded in yet; replayed in add order by `_ensure_counts` so
        # the budgeted path sees exactly the state eager updates would
        # have produced.  The full-drain path never pays for them.
        self._count_backlog: list[np.ndarray] = []
        self._pending_total = 0
        # Keep the paper's ~32-bins-per-score-space shape regardless of
        # the metafile block size used (tests shrink it).
        bin_width = max(bits_per_block // 32, 1)
        self._hbps = HBPS(bits_per_block, bin_width=bin_width)
        #: Cumulative VBNs ever logged (metric).
        self.total_logged = 0

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """VBNs logged but not yet applied."""
        return self._pending_total

    @property
    def pending_blocks(self) -> int:
        """Distinct metafile blocks with pending frees."""
        self._ensure_counts()
        return len(self._pending)

    @property
    def hbps(self) -> HBPS:
        """The prioritizing HBPS (exposed for tests and metrics)."""
        self._ensure_counts()
        return self._hbps

    # ------------------------------------------------------------------
    def add(self, vbns: np.ndarray) -> None:
        """Log ``vbns`` for deferred freeing.

        Only the chunk itself is staged here; per-block counts and HBPS
        scores are folded in lazily (`_ensure_counts`) because the
        common full-drain CP never reads either.
        """
        vbns = np.asarray(vbns, dtype=np.int64)
        if vbns.size == 0:
            return
        self.total_logged += int(vbns.size)
        self._pending_total += int(vbns.size)
        self._staged.append(vbns)
        self._count_backlog.append(vbns)

    def _ensure_counts(self) -> None:
        """Replay deferred per-block accounting in add order, producing
        exactly the pending-count map and HBPS history eager updates
        would have (the HBPS tie-break order is sequence-dependent)."""
        if not self._count_backlog:
            return
        backlog, self._count_backlog = self._count_backlog, []
        for vbns in backlog:
            blocks = vbns // self.bits_per_block
            # Per-block counts via a bincount over the touched block
            # range: the range is tiny (one block covers 32K VBNs) so
            # this avoids the argsort/unique a grouping would need.
            bmin = int(blocks.min())
            counts = np.bincount(blocks - bmin)
            touched = np.flatnonzero(counts)
            for off, cnt in zip(touched.tolist(), counts[touched].tolist()):
                blk = bmin + off
                old = self._pending.get(blk, 0)
                new = old + cnt
                self._pending[blk] = new
                score_old = min(old, self.bits_per_block)
                score_new = min(new, self.bits_per_block)
                if old == 0:
                    self._hbps.insert(blk, score_new)
                else:
                    self._hbps.update(blk, score_old, score_new)

    def _ensure_grouped(self) -> None:
        """Fold staged (ungrouped) chunks into the per-block map."""
        if not self._staged:
            return
        vbns = self._staged[0] if len(self._staged) == 1 else np.concatenate(self._staged)
        self._staged = []
        blocks = vbns // self.bits_per_block
        order = np.argsort(blocks, kind="stable")
        sorted_blocks = blocks[order]
        sorted_vbns = vbns[order]
        first = run_starts(sorted_blocks)
        bounds = np.append(np.flatnonzero(first), sorted_blocks.size)
        for i, blk in enumerate(sorted_blocks[first].tolist()):
            chunk = sorted_vbns[bounds[i] : bounds[i + 1]]
            self._per_block.setdefault(blk, []).append(chunk)

    def apply_all(self, metafile: BitmapMetafile) -> np.ndarray:
        """Apply every pending free to ``metafile``.

        Returns the freed VBNs (for AA-score accounting by the caller).
        """
        chunks = [c for lst in self._per_block.values() for c in lst]
        chunks.extend(self._staged)
        if not chunks:
            return np.empty(0, dtype=np.int64)
        vbns = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        # Logged chunks were in-range int64 when allocated: trusted batch.
        metafile.free(vbns, trusted=True)
        self._per_block.clear()
        self._staged = []
        self._pending.clear()
        self._count_backlog = []
        self._pending_total = 0
        self._hbps.rebuild(())
        return vbns

    def apply_best(self, metafile: BitmapMetafile, max_blocks: int) -> np.ndarray:
        """Apply frees for at most ``max_blocks`` metafile blocks,
        chosen highest-pending-count first via the HBPS.

        This is the paper's "delayed-free scores" use of HBPS: when the
        CP budgets metafile updates, processing the fullest blocks frees
        the most space per metafile block written.  Returns the freed
        VBNs.
        """
        self._ensure_counts()
        self._ensure_grouped()
        freed: list[np.ndarray] = []
        applied = 0
        while applied < max_blocks and self._pending:
            popped = self._hbps.pop_best()
            if popped is None:
                # List ran dry while blocks remain: replenish from the
                # authoritative pending map (the analogue of the
                # background bitmap walk).
                self._hbps.rebuild(
                    (blk, min(cnt, self.bits_per_block))
                    for blk, cnt in self._pending.items()
                )
                popped = self._hbps.pop_best()
                if popped is None:
                    break
            blk, _bin = popped
            chunks = self._per_block.pop(blk, [])
            if not chunks:
                continue
            self._pending.pop(blk, None)
            vbns = np.concatenate(chunks)
            self._pending_total -= int(vbns.size)
            metafile.free(vbns, trusted=True)
            freed.append(vbns)
            applied += 1
        if freed:
            return np.concatenate(freed)
        return np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Introspection and invariants
    # ------------------------------------------------------------------
    def pending_vbns(self) -> np.ndarray:
        """Every VBN currently logged but not yet applied (sorted)."""
        chunks = [c for lst in self._per_block.values() for c in lst]
        chunks.extend(self._staged)
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(chunks))

    def check_invariants(self, bitmap=None) -> None:
        """Raise :class:`~repro.common.errors.CacheError` on any broken
        conservation property of the log.

        Checks: per-block pending counts match the logged chunks, the
        prioritizing HBPS tracks exactly the blocks with pending frees,
        no VBN is logged twice, and — when ``bitmap`` is given — every
        pending VBN is still allocated there (a logged free that is
        already clear would double-free on apply).
        """
        self._ensure_counts()
        self._ensure_grouped()
        for blk, count in self._pending.items():
            chunks = self._per_block.get(blk, [])
            actual = sum(int(c.size) for c in chunks)
            if actual != count:
                raise CacheError(
                    f"delayed-free block {blk}: pending count {count} != "
                    f"logged chunk total {actual}"
                )
        if set(self._per_block) != set(self._pending):
            raise CacheError("delayed-free chunk map and pending map diverge")
        if self._pending_total != sum(self._pending.values()):
            raise CacheError(
                f"delayed-free running total {self._pending_total} != "
                f"per-block sum {sum(self._pending.values())}"
            )
        self._hbps.check_invariants()
        if self._hbps.total_count != len(self._pending):
            raise CacheError(
                f"delayed-free HBPS tracks {self._hbps.total_count} blocks "
                f"but {len(self._pending)} have pending frees"
            )
        vbns = self.pending_vbns()
        if vbns.size and sorted_unique(vbns).size != vbns.size:
            raise CacheError("duplicate VBN in delayed-free log")
        if bitmap is not None and vbns.size and not bool(np.all(bitmap.test(vbns))):
            bad = vbns[~bitmap.test(vbns)]
            raise CacheError(
                f"pending delayed-free VBN(s) {bad[:8].tolist()} are already "
                f"free in the bitmap"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DelayedFreeLog(pending={self.pending_count}, "
            f"blocks={self.pending_blocks})"
        )
