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

Implementation: flat arrays, not a pointer heap.  An available AA's key
is ``(score << shift) - aa`` (``shift`` bits hold any AA number), any
other AA's is ``_GONE``: the largest key is the highest score, then the
lowest AA — the heap's pop order — and names its AA.  Keys are stored
one row per block of ~``sqrt(num_aas)`` AAs beside each row's maximum;
:meth:`pop_best` takes the largest maximum and refreshes that row, a CP
batch refreshes the rows it touched, a build is one vector pass.  Scores
and keys are 16 bytes per AA (:attr:`memory_bytes`); the paper's
arithmetic is 8, ~1 MiB per million AAs.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import CacheError
from .score import ScoreChanges, as_changes, checked_out_in

__all__ = ["RAIDAwareAACache"]

_UNKNOWN = -1
#: The key of an AA that cannot be handed out (checked out or unknown).
_GONE = int(np.iinfo(np.int64).min)
_MAX_KEY = int(np.iinfo(np.int64).max)
#: ``ndarray.max`` without its Python-level wrapper (small arrays, hot paths).
_max = np.maximum.reduce


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

    __slots__ = ("num_aas", "_shift", "_block_bits", "_score", "_key", "_block_max",
                 "_out", "_known", "seeded", "pushes", "pops")

    def __init__(self, num_aas: int, scores: np.ndarray | None = None) -> None:
        if num_aas <= 0:
            raise CacheError("num_aas must be positive")
        self.num_aas = int(num_aas)
        # AA numbers fill the key's low bits; a block holds ~sqrt(num_aas) keys.
        self._shift = (self.num_aas - 1).bit_length()
        self._block_bits = (self._shift + 1) // 2
        nblocks = -(-self.num_aas >> self._block_bits)
        self._score = np.full(self.num_aas, _UNKNOWN, dtype=np.int64)
        self._key = np.full((nblocks, 1 << self._block_bits), _GONE, dtype=np.int64)
        self._block_max = np.full(nblocks, _GONE, dtype=np.int64)
        self._out: set[int] = set()
        self._known = 0
        #: True when populated from a TopAA seed: seeded scores are a
        #: point-in-time export and may legitimately lag the keeper
        #: until the background rebuild refreshes them.
        self.seeded = False
        # Maintenance-op counters for the CPU-overhead evaluation (§4.1.2):
        # one push per AA (re-)entering, one pop per AA handed out.
        self.pushes = 0
        self.pops = 0
        if scores is not None:
            self._build(scores)

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
        """Measured memory: the bytes of the score, key and block-maximum
        arrays (the paper's arithmetic is 8 bytes per AA, section 3.3.1)."""
        return self._score.nbytes + self._key.nbytes + self._block_max.nbytes

    @property
    def max_score(self) -> int:
        """Largest score a key can encode next to ``num_aas`` AA numbers."""
        return _MAX_KEY >> self._shift

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
        best = int(_max(self._block_max))
        return None if best == _GONE else int(self._score[-best & ((1 << self._shift) - 1)])

    def pop_best(self) -> int | None:
        """Check out the emptiest AA, or ``None`` if none are available."""
        block = int(self._block_max.argmax())
        best = int(self._block_max[block])
        if best == _GONE:
            return None
        aa = -best & ((1 << self._shift) - 1)
        row = self._key[block]
        row[aa - (block << self._block_bits)] = _GONE
        self._block_max[block] = _max(row)
        self._out.add(aa)
        self.pops += 1
        return aa

    def push_back(self, aa: int) -> None:
        """Return a checked-out AA whose score did not change."""
        if aa not in self._out:
            raise CacheError(f"AA {aa} is not checked out")
        self._out.discard(aa)
        key = (int(self._score[aa]) << self._shift) - aa
        block, slot = divmod(aa, 1 << self._block_bits)
        self._key[block, slot] = key
        self._block_max[block] = max(key, int(self._block_max[block]))
        self.pushes += 1

    # ------------------------------------------------------------------
    # CP boundary and population
    # ------------------------------------------------------------------
    def apply_changes(self, changes: ScoreChanges, held: frozenset[int] = frozenset()) -> None:
        """Rebalance after a CP: absorb ``(aa, old, new)`` transitions,
        as one batch refused whole if invalid.

        Checked-out AAs among the changes re-enter the heap with their
        new scores — except those both checked out and in ``held``,
        which the write allocator is still filling across CP boundaries
        ("assigns all free VBNs from the AA", section 3.1); their
        snapshot scores are updated but they stay checked out.  AAs a
        seeded cache does not yet track wait for the background rebuild.
        """
        if not len(changes):
            return  # nothing moved this CP
        rows = as_changes(changes, self.num_aas)
        if self._known < self.num_aas:
            rows = rows[:, self._score[rows[0]] != _UNKNOWN]
        aas, news = rows[0], rows[2]
        self._check_scores(news)
        self._score[aas] = news
        stay = back = checked_out_in(aas, self._out)  # checked out: these re-enter,
        if back:
            stay = held & back  # bar those still being filled (they re-enter via push_back)
            self._out.difference_update(back - stay)
        self._enter(aas, news, stay)

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
        self._build(scores)

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
            "checked_out": len(self._out),
            "known": self._known,
            "memory_bytes": self.memory_bytes,
        }

    def populate(self, pairs: np.ndarray | list[tuple[int, int]]) -> None:
        """Supply the scores of previously unknown AAs (a TopAA seed) as
        ``(aa, score)`` pairs or ``(n, 2)`` rows, one batch refused
        whole if invalid."""
        aas, scores = as_changes(pairs, self.num_aas, width=2)
        self._check_scores(scores)
        known = self._score[aas] != _UNKNOWN
        if known.any():
            raise CacheError(f"AA {aas[known.argmax()]} already populated; use apply_changes")
        self._score[aas] = scores
        self._known += aas.size
        self._enter(aas, scores)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_scores(self, scores: np.ndarray) -> None:
        """Refuse a batch whose scores a key cannot encode: those in
        ``[0, max_score]`` are the ones with no bit above the key's
        score bits (a negative one shifts to -1)."""
        if np.count_nonzero(scores >> (63 - self._shift)):
            raise CacheError(f"negative AA score, or one above {self.max_score}")

    def _enter(
        self, aas: np.ndarray, scores: np.ndarray, stay: frozenset[int] = frozenset()
    ) -> None:
        """Make ``aas`` available at ``scores`` — bar those in ``stay``,
        which stay checked out — with one scatter of their keys and one
        refresh of every block they touch."""
        if not aas.size:
            return
        keys = scores << self._shift
        keys -= aas
        self._key.put(aas, keys)
        if stay:
            self._key.put(list(stay), _GONE)
        touched = np.zeros(self._block_max.size, dtype=bool)
        touched[aas >> self._block_bits] = True
        blocks = touched.nonzero()[0]
        if blocks.size == touched.size:  # every block: no gathered copy of the keys
            _max(self._key, axis=1, out=self._block_max)
        else:
            self._block_max[blocks] = _max(self._key.take(blocks, axis=0), axis=1)
        self.pushes += aas.size - len(stay)

    def _build(self, scores: np.ndarray) -> None:
        """Every AA known at ``scores`` — bar checked-out ones, which
        keep their snapshots — and every available AA keyed, in one
        vector pass."""
        if len(scores) != self.num_aas:
            raise CacheError("scores length does not match num_aas")
        scores = np.asarray(scores, dtype=np.int64)
        self._check_scores(scores)
        out = sorted(self._out)
        snapshots = self._score[out]
        self._score[:] = scores
        self._score[out] = snapshots
        self._known = self.num_aas
        self.seeded = False
        aas = np.arange(self.num_aas)
        keys = (self._score << self._shift) - aas
        keys[out] = _GONE
        self._key.put(aas, keys)
        self._key.max(axis=1, out=self._block_max)
        self.pushes += self.num_aas - len(out)

    def check_invariants(self) -> None:
        """Test hook: every key must match its AA's score and state —
        ``_GONE`` when checked out or unknown — and every block maximum
        its block."""
        live = self._score != _UNKNOWN
        if int(live.sum()) != self._known or (self._score[sorted(self._out)] < 0).any():
            raise CacheError(f"known count {self._known} != scored AAs, or an unknown AA out")
        live[sorted(self._out)] = False
        aas = np.flatnonzero(live)
        expected = np.full(self._key.size, _GONE, dtype=np.int64)
        expected[aas] = (self._score[aas] << self._shift) - aas
        bad = np.flatnonzero(expected != self._key.ravel())
        if bad.size:
            aa = int(bad[0])
            raise CacheError(f"AA {aa} has key {self._key.take(aa)}, expected {expected[aa]}")
        stale = np.flatnonzero(self._block_max != self._key.max(axis=1))
        if stale.size:
            raise CacheError(f"stale maximum of key block {int(stale[0])}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RAIDAwareAACache(num_aas={self.num_aas}, known={self._known}, "
            f"out={len(self._out)}, blocks={self._block_max.size})"
        )
