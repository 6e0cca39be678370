"""AA score tracking with CP-batched updates.

"The free space of an AA is quantified by its *AA score*: it is the
number of free blocks in the AA ... The AA score decreases when the
write allocator allocates VBNs from that AA, and it increases when VBNs
from that AA are freed.  AA score updates resulting from frees
(increments) and allocations (decrements) are delayed and performed
efficiently in batched fashion at the CP boundary." (paper section 3.3)

:class:`ScoreKeeper` owns the authoritative score array for one AA
topology, accumulates deltas during a CP, and on :meth:`flush` returns
the ``(aa, old_score, new_score)`` transitions that the AA caches (the
max-heap or the HBPS) consume, as one batch, to rebalance themselves.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence, Union

import numpy as np

from ..common.errors import CacheError
from ..bitmap.bitmap import Bitmap
from .aa import AATopology

__all__ = ["ScoreChanges", "ScoreKeeper", "as_changes"]

#: One CP's ``(aa, old, new)`` transitions: the ``(n, 3)`` int64 array
#: :meth:`ScoreKeeper.flush` returns, or a sequence of such triples.
ScoreChanges = Union[np.ndarray, Sequence[tuple[int, int, int]]]


def as_changes(changes: ScoreChanges, num_aas: int, width: int = 3) -> np.ndarray:
    """``changes`` — ``(n, width)`` rows or ``width``-tuples — as one
    ``(width, n)`` int64 array of columns: for a keeper's batch, a view
    of the columns it was built from.  Raises :class:`CacheError`,
    before a cache moves anything, unless every row is ``width`` wide
    and the AAs (column 0) are distinct and in ``[0, num_aas)``; only an
    AA column that is not ascending (no keeper batch) is sorted, once."""
    if not len(changes):
        return np.empty((width, 0), dtype=np.int64)
    if isinstance(changes, np.ndarray):
        if changes.ndim != 2 or changes.shape[1] != width:
            raise CacheError(f"a batch must be (n, {width}) rows, got shape {changes.shape}")
        columns = changes.T.astype(np.int64, copy=False)
    else:
        try:  # no row wider than ``width`` and ``width`` values a row: all ``width`` wide
            if max(map(len, changes)) != width:
                raise ValueError
            columns = np.fromiter(chain.from_iterable(changes), np.int64, width * len(changes))
        except ValueError:
            raise CacheError(f"a batch row is not {width} integers wide") from None
        columns = columns.reshape(-1, width).T
    aas = columns[0]
    if np.count_nonzero(aas[1:] <= aas[:-1]):
        aas = np.sort(aas)
        if np.count_nonzero(aas[1:] == aas[:-1]):
            raise CacheError("an AA appears twice in one batch")
    if aas[0] < 0 or aas[-1] >= num_aas:
        raise CacheError(f"an AA outside [0, {num_aas}) in a batch")
    return columns


class ScoreKeeper:
    """Per-AA free-block scores with delayed (CP-batched) application.

    Parameters
    ----------
    topology:
        The AA topology whose areas are scored.
    bitmap:
        When given, initial scores are computed from it (one vectorized
        pass); otherwise every AA starts empty (score == capacity).
    scores:
        The scores a bitmap walk has just computed, in place of a second
        walk of ``bitmap``; the keeper takes its own ``int64`` copy.
    """

    __slots__ = ("topology", "_scores", "_pending", "_unread", "flushes", "deltas_applied")

    def __init__(
        self,
        topology: AATopology,
        bitmap: Bitmap | None = None,
        *,
        scores: np.ndarray | None = None,
    ) -> None:
        self.topology = topology
        if scores is not None:
            if len(scores) != topology.num_aas:
                raise CacheError("scores length does not match the topology")
            self._scores = np.array(scores, dtype=np.int64)
        elif bitmap is None:
            self._scores = np.full(topology.num_aas, topology.aa_blocks, dtype=np.int64)
        else:
            self._scores = topology.scores_from_bitmap(bitmap)
        # Pending (unflushed) per-AA deltas.  A flat int64 array so both
        # accumulation (bincount add) and flush (flatnonzero) vectorize;
        # the number of AAs is small relative to the VBN space.
        self._pending = np.zeros(topology.num_aas, dtype=np.int64)
        # (mask of the AAs not read yet, the bitmap to read them from);
        # None once every score is known.
        self._unread: tuple[np.ndarray, Bitmap] | None = None
        #: Number of CP flushes performed (metric).
        self.flushes = 0
        #: Total per-AA delta records applied across all flushes (metric).
        self.deltas_applied = 0

    @classmethod
    def unread(cls, topology: AATopology, bitmap: Bitmap) -> ScoreKeeper:
        """A keeper that has not read ``bitmap`` yet (the TopAA mount).
        An unknown AA's applied score is its bitmap free count less its
        pending delta, since allocations and frees move both together:
        each score learned later is the one an eager keeper holds."""
        keeper = cls(topology)
        keeper._unread = (np.ones(topology.num_aas, dtype=bool), bitmap)
        return keeper

    def _learn(self, aas: np.ndarray | list[int]) -> None:
        """Read the unknown AAs among ``aas`` from the bitmap: one
        ``aa_score`` each for a few, one walk for a quarter or more."""
        if self._unread is None:
            return
        unknown, bitmap = self._unread
        aas = np.asarray(aas, dtype=np.int64)
        aas = aas[unknown[aas]]
        if 4 * aas.size >= unknown.size:
            self._complete()
        elif aas.size:
            for aa in aas.tolist():
                self._scores[aa] = self.topology.aa_score(bitmap, aa) - self._pending[aa]
            unknown[aas] = False

    def _complete(self) -> None:
        """Learn every unknown AA with one walk of the bitmap."""
        if self._unread is not None:
            unknown, bitmap = self._unread
            learned = self.topology.scores_from_bitmap(bitmap) - self._pending
            self._scores[unknown] = learned[unknown]
            self._unread = None

    # ------------------------------------------------------------------
    @property
    def scores(self) -> np.ndarray:
        """Read-only view of the applied (post-flush) scores."""
        self._complete()
        v = self._scores.view()
        v.flags.writeable = False
        return v

    def score(self, aa: int) -> int:
        """Applied score of one AA (pending deltas not included)."""
        self._learn([aa])
        return int(self._scores[aa])

    def effective_score(self, aa: int) -> int:
        """Score including pending (unflushed) deltas."""
        self._learn([aa])
        return int(self._scores[aa] + self._pending[aa])

    @property
    def pending_aa_count(self) -> int:
        """AAs with unflushed (nonzero) deltas."""
        return int(np.count_nonzero(self._pending))

    def has_pending(self, aa: int) -> bool:
        """Whether AA ``aa`` has an unflushed (nonzero) delta."""
        return bool(self._pending[aa] != 0)

    # ------------------------------------------------------------------
    # Delta accumulation (called during a CP)
    # ------------------------------------------------------------------
    def note_alloc(self, vbns: np.ndarray) -> None:
        """Record allocations: scores of the owning AAs will decrease."""
        self._note(vbns, sign=-1)

    def note_free(self, vbns: np.ndarray) -> None:
        """Record frees: scores of the owning AAs will increase."""
        self._note(vbns, sign=+1)

    def note_alloc_aa(self, aa: int, count: int) -> None:
        """Record ``count`` allocations within AA ``aa`` directly."""
        self._pending[aa] -= int(count)

    def note_free_aa(self, aa: int, count: int) -> None:
        """Record ``count`` frees within AA ``aa`` directly."""
        self._pending[aa] += int(count)

    def _note(self, vbns: np.ndarray, *, sign: int) -> None:
        vbns = np.asarray(vbns, dtype=np.int64)
        if vbns.size == 0:
            return
        counts = np.bincount(self.topology.aa_of_vbn(vbns), minlength=self._pending.size)
        if sign > 0:
            self._pending += counts
        else:
            self._pending -= counts

    # ------------------------------------------------------------------
    # CP boundary
    # ------------------------------------------------------------------
    def flush(self) -> np.ndarray:
        """Apply pending deltas; return the ``(aa, old, new)`` transitions
        as an ``(n, 3)`` int64 array, one row per changed AA, AAs
        ascending.

        Raises :class:`CacheError` if a delta would push a score outside
        ``[0, aa_blocks]`` — that means allocation and bitmap state have
        diverged, which the paper's WAFL would treat as metadata
        corruption (section 3.4 discusses its repair).
        """
        self.flushes += 1
        changed = self._pending.nonzero()[0]
        if changed.size == 0:
            return np.empty((0, 3), dtype=np.int64)
        self._learn(changed)
        rows = np.array((changed, self._scores[changed], self._pending[changed]))
        rows[2] += rows[1]
        news = rows[2].tolist()
        cap = self.topology.aa_blocks
        if min(news) < 0 or max(news) > cap:
            aa = int(changed[((rows[2] < 0) | (rows[2] > cap)).argmax()])
            raise CacheError(
                f"AA {aa} score {int(self._scores[aa])} + delta "
                f"{int(self._pending[aa])} leaves [0, {cap}]"
            )
        self._scores[changed] = rows[2]
        self._pending[changed] = 0
        self.deltas_applied += len(news)
        return rows.T

    def recompute(self, bitmap: Bitmap) -> None:
        """Recompute every score from the bitmap (consistency check /
        rebuild path).  Pending deltas are discarded."""
        self._scores = self.topology.scores_from_bitmap(bitmap)
        self._pending[:] = 0
        self._unread = None
