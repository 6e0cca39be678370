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
max-heap or the HBPS) consume to rebalance themselves.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import CacheError
from ..bitmap.bitmap import Bitmap
from .aa import AATopology

__all__ = ["ScoreKeeper", "ScoreChange"]

#: A flushed score transition: (aa, old_score, new_score).
ScoreChange = tuple[int, int, int]


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

    __slots__ = ("topology", "_scores", "_pending", "flushes", "deltas_applied")

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
        #: Number of CP flushes performed (metric).
        self.flushes = 0
        #: Total per-AA delta records applied across all flushes (metric).
        self.deltas_applied = 0

    # ------------------------------------------------------------------
    @property
    def scores(self) -> np.ndarray:
        """Read-only view of the applied (post-flush) scores."""
        v = self._scores.view()
        v.flags.writeable = False
        return v

    def score(self, aa: int) -> int:
        """Applied score of one AA (pending deltas not included)."""
        return int(self._scores[aa])

    def effective_score(self, aa: int) -> int:
        """Score including pending (unflushed) deltas."""
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
    def flush(self) -> list[ScoreChange]:
        """Apply pending deltas; return ``(aa, old, new)`` transitions.

        Raises :class:`CacheError` if a delta would push a score outside
        ``[0, aa_blocks]`` — that means allocation and bitmap state have
        diverged, which the paper's WAFL would treat as metadata
        corruption (section 3.4 discusses its repair).
        """
        self.flushes += 1
        changed = np.flatnonzero(self._pending)
        if changed.size == 0:
            return []
        cap = self.topology.aa_blocks
        old = self._scores[changed]
        new = old + self._pending[changed]
        bad = np.flatnonzero((new < 0) | (new > cap))
        if bad.size:
            aa = int(changed[bad[0]])
            raise CacheError(
                f"AA {aa} score {int(self._scores[aa])} + delta "
                f"{int(self._pending[aa])} leaves [0, {cap}]"
            )
        self._scores[changed] = new
        self._pending[changed] = 0
        self.deltas_applied += int(changed.size)
        return list(zip(changed.tolist(), old.tolist(), new.tolist()))

    def recompute(self, bitmap: Bitmap) -> None:
        """Recompute every score from the bitmap (consistency check /
        rebuild path).  Pending deltas are discarded."""
        self._scores = self.topology.scores_from_bitmap(bitmap)
        self._pending[:] = 0

    def verify_against(self, bitmap: Bitmap) -> None:
        """Assert applied scores match the bitmap exactly (test hook)."""
        truth = self.topology.scores_from_bitmap(bitmap)
        if not np.array_equal(truth, self._scores):
            bad = np.flatnonzero(truth != self._scores)
            raise CacheError(
                f"score divergence in AAs {bad[:8].tolist()}: "
                f"scores={self._scores[bad[:8]].tolist()} bitmap={truth[bad[:8]].tolist()}"
            )
