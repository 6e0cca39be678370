"""RAID-aware allocation-area cache: a max-heap over all AAs.

"This is an in-memory max-heap of all AAs in a RAID group sorted by
score.  The max-heap is rebalanced at the end of each CP after updating
the scores of AAs in which VBNs were allocated or freed." (paper
section 3.3.1)

The cache hands the write allocator the emptiest AA of its RAID group
(:meth:`pop_best`), absorbs the CP-boundary score transitions produced
by :class:`~repro.core.score.ScoreKeeper` (:meth:`apply_changes`), and
supports the TopAA mount path: seeding from a small set of high-quality
AAs (:meth:`populate`) and refilling every AA with exact scores in the
background (:meth:`refill`, paper section 3.4).

Implementation: a lazy binary heap with per-AA version numbers.  Stale
entries (superseded score or already checked out) are discarded on pop;
the heap is compacted when stale entries dominate.  The *modeled*
memory footprint matches the paper's arithmetic — 8 bytes per AA, i.e.
~1 MiB for the million AAs of a 16 TiB-device RAID group.
"""

from __future__ import annotations

import heapq
import operator
from itertools import compress

import numpy as np

from ..common.errors import CacheError
from .score import ScoreChanges, as_changes

__all__ = ["RAIDAwareAACache"]

_UNKNOWN = -1


class RAIDAwareAACache:
    """Max-heap AA cache for one RAID group.

    Parameters
    ----------
    num_aas:
        Total AAs in the RAID group.
    scores:
        When given, the cache is fully populated from this array (the
        normal boot-time bitmap walk).  When ``None``, every AA starts
        *unknown* and must be supplied via :meth:`populate` — the TopAA
        seeding path.
    """

    __slots__ = (
        "num_aas",
        "_score",
        "_version",
        "_out",
        "_heap",
        "_known",
        "seeded",
        "pushes",
        "pops",
        "compactions",
    )

    def __init__(self, num_aas: int, scores: np.ndarray | None = None) -> None:
        if num_aas <= 0:
            raise CacheError("num_aas must be positive")
        self.num_aas = int(num_aas)
        self._score = np.full(self.num_aas, _UNKNOWN, dtype=np.int64)
        self._version = np.zeros(self.num_aas, dtype=np.int64)
        self._out: set[int] = set()
        self._heap: list[tuple[int, int, int]] = []  # (-score, aa, version)
        self._known = 0
        #: True when populated from a TopAA seed: seeded scores are a
        #: point-in-time export and may legitimately lag the keeper
        #: until the background rebuild refreshes them.
        self.seeded = False
        # Maintenance-op counters for the CPU-overhead evaluation (§4.1.2).
        self.pushes = 0
        self.pops = 0
        self.compactions = 0
        if scores is not None:
            if len(scores) != self.num_aas:
                raise CacheError("scores length does not match num_aas")
            self._score[:] = scores
            self._known = self.num_aas
            self.pushes += self._rebuild()

    # ------------------------------------------------------------------
    @property
    def fully_populated(self) -> bool:
        """Whether every AA's score is known to the cache."""
        return self._known == self.num_aas

    @property
    def known_count(self) -> int:
        """AAs whose scores the cache knows."""
        return self._known

    @property
    def checked_out(self) -> frozenset[int]:
        """AAs currently handed to the allocator (popped, not returned)."""
        return frozenset(self._out)

    @property
    def memory_bytes(self) -> int:
        """Modeled memory: 8 bytes (score + index) per tracked AA, the
        paper's ~1 MiB-per-million-AAs figure (section 3.3.1)."""
        return 8 * self.num_aas

    def score_of(self, aa: int) -> int:
        """Cache's view of an AA's score (-1 when unknown)."""
        return int(self._score[aa])

    @property
    def scores_view(self) -> np.ndarray:
        """Read-only per-AA score array (-1 = unknown).  The invariant
        auditor compares this against the score keeper's totals."""
        v = self._score.view()
        v.flags.writeable = False
        return v

    # ------------------------------------------------------------------
    # Allocator-facing operations
    # ------------------------------------------------------------------
    def best_score(self) -> int | None:
        """Score of the best available AA, or ``None`` if none remain.

        The write allocator uses this "as an indicator of [the RAID
        group's] fragmentation and so judge[s] when to stop and when to
        resume writing to that RAID group" (paper section 3.3.1).
        """
        self._clean_top()
        return -self._heap[0][0] if self._heap else None

    def pop_best(self) -> int | None:
        """Check out the emptiest AA, or ``None`` if none are available."""
        self._clean_top()
        if not self._heap:
            return None
        neg, aa, _ver = heapq.heappop(self._heap)
        self._out.add(aa)
        self.pops += 1
        return aa

    def push_back(self, aa: int) -> None:
        """Return a checked-out AA whose score did not change."""
        if aa not in self._out:
            raise CacheError(f"AA {aa} is not checked out")
        self._out.discard(aa)
        self._push(aa)

    # ------------------------------------------------------------------
    # CP boundary and population
    # ------------------------------------------------------------------
    def apply_changes(self, changes: ScoreChanges, held: frozenset[int] = frozenset()) -> None:
        """Rebalance after a CP: absorb ``(aa, old, new)`` transitions,
        as one batch refused whole if invalid.

        Checked-out AAs among the changes re-enter the heap with their
        new scores — except those in ``held``, which the write
        allocator is still filling across CP boundaries ("assigns all
        free VBNs from the AA", section 3.1); their snapshot scores are
        updated but they stay checked out.  AAs a seeded cache does not
        yet track wait for the background rebuild.
        """
        rows, (aas, _olds, news) = as_changes(changes, self.num_aas)
        if not self.fully_populated:
            rows = rows[self._score[rows[:, 0]] != _UNKNOWN]
            aas, _olds, news = rows.T.tolist()
        if min(news, default=0) < 0:
            raise CacheError("negative AA score in a score batch")
        index = rows[:, 0]
        self._score[index] = rows[:, 2]
        if not held.isdisjoint(aas):
            pushed = list(map(operator.not_, map(held.__contains__, aas)))
            aas, news = list(compress(aas, pushed)), list(compress(news, pushed))
            index = np.array(aas, dtype=np.int64)
        if aas:
            versions = self._version[index] + 1
            self._version[index] = versions
            for entry in zip(map(operator.neg, news), aas, versions.tolist()):
                heapq.heappush(self._heap, entry)
            self._out.difference_update(aas)
            self.pushes += len(aas)
        self._maybe_compact()

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
        """Return a checked-out AA.  The heap keeps exact scores, so the
        caller-supplied ``score`` is advisory here (the keeper re-scores
        at the CP boundary); HBPS needs it to pick the bin."""
        self.push_back(aa)

    def refill(self, scores: np.ndarray) -> None:
        """Authoritative rebuild from a full score array (the background
        bitmap walk that completes a TopAA-seeded mount).  Checked-out
        AAs keep their snapshots and stay out."""
        if len(scores) != self.num_aas:
            raise CacheError("scores length does not match num_aas")
        out = sorted(self._out)
        snapshots = self._score[out]
        self._score[:] = scores
        self._score[out] = snapshots
        self._known = self.num_aas
        self.seeded = False
        self.compactions += 1
        self.pushes += self._rebuild()

    def best_available_score(self) -> int | None:
        """Protocol alias of :meth:`best_score`."""
        return self.best_score()

    @property
    def needs_refill(self) -> bool:
        """True while TopAA seeding left scores unknown; a refill (full
        bitmap walk) would teach the cache the remaining AAs."""
        return self._known < self.num_aas

    @property
    def maintenance_ops(self) -> int:
        """Cache maintenance operations charged to CP CPU time."""
        return self.pushes + self.pops

    def stats(self) -> dict[str, int]:
        """Counter snapshot (protocol accessor)."""
        return {
            "selects": self.pops,
            "maintenance_ops": self.maintenance_ops,
            "pushes": self.pushes,
            "pops": self.pops,
            "compactions": self.compactions,
            "checked_out": len(self._out),
            "known": self._known,
            "memory_bytes": self.memory_bytes,
        }

    def populate(self, pairs: np.ndarray | list[tuple[int, int]]) -> None:
        """Supply the scores of previously unknown AAs (a TopAA seed) as
        ``(aa, score)`` pairs or ``(n, 2)`` rows, one batch refused
        whole if invalid."""
        aas, scores = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        if min(aas.min(initial=0), scores.min(initial=0)) < 0 or aas.max(initial=0) >= self.num_aas:
            raise CacheError(f"an AA outside [0, {self.num_aas}) or a negative score")
        known = self._score[aas] != _UNKNOWN
        if known.any():
            raise CacheError(f"AA {aas[known.argmax()]} already populated; use apply_changes")
        if len(set(aas.tolist())) < aas.size:
            raise CacheError("an AA is populated twice in one batch")
        self._score[aas] = scores
        self._known += aas.size
        self._version[aas] += 1
        self._heap.extend(zip((-scores).tolist(), aas.tolist(), self._version[aas].tolist()))
        heapq.heapify(self._heap)
        self.pushes += aas.size

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _push(self, aa: int) -> None:
        self._version[aa] += 1
        heapq.heappush(self._heap, (-int(self._score[aa]), int(aa), int(self._version[aa])))
        self.pushes += 1

    def _clean_top(self) -> None:
        h = self._heap
        while h:
            neg, aa, ver = h[0]
            if aa in self._out or ver != self._version[aa] or self._score[aa] != -neg:
                heapq.heappop(h)
            else:
                return

    def _maybe_compact(self) -> None:
        if len(self._heap) <= 4 * self.num_aas + 16:
            return
        self.compactions += 1
        self._rebuild()

    def _rebuild(self) -> int:
        """One entry per known, available AA, built from the arrays in AA
        order; returns how many."""
        live = self._score != _UNKNOWN
        live[sorted(self._out)] = False
        aas = np.flatnonzero(live)
        self._heap = [*zip((-self._score[aas]).tolist(), aas.tolist(), self._version[aas].tolist())]
        heapq.heapify(self._heap)
        return len(self._heap)

    def check_invariants(self) -> None:
        """Test hook: the structural max-heap property must hold over
        the backing array, and the live entries must cover every known,
        not-checked-out AA exactly once."""
        h = self._heap
        for i, entry in enumerate(h):
            for j in (2 * i + 1, 2 * i + 2):
                if j < len(h) and h[j] < entry:
                    raise CacheError(
                        f"max-heap property violated: parent {i} "
                        f"(score {-entry[0]}) vs child {j} (score {-h[j][0]})"
                    )
        valid = {}
        for neg, aa, ver in h:
            if aa in self._out or ver != self._version[aa] or self._score[aa] != -neg:
                continue
            if aa in valid:
                raise CacheError(f"duplicate live heap entry for AA {aa}")
            valid[aa] = -neg
        expected = {
            aa
            for aa in range(self.num_aas)
            if self._score[aa] != _UNKNOWN and aa not in self._out
        }
        if set(valid) != expected:
            raise CacheError(
                f"live heap entries {len(valid)} != known available AAs {len(expected)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RAIDAwareAACache(num_aas={self.num_aas}, known={self._known}, "
            f"out={len(self._out)}, heap={len(self._heap)})"
        )
