"""Histogram-based partial sort (HBPS).

HBPS is the paper's novel data structure (section 3.3.2, Figure 5) for
tracking millions of scored items — allocation areas, delayed-free
counts — in close-to-sorted order using a *fixed* amount of memory:

* a **histogram page** counts the number of items in each score-range
  bin (bin width 1K for a 32K max score, i.e. 32 ranges plus one for
  score 0) and, for the best bins, an index into the list page;
* a **list page** stores *all* the items from the best bins, unsorted
  within each bin, bounded by a fixed capacity (1,000 entries).

Popping the best item takes it from the highest populated listed bin,
which guarantees a score within one bin width of the true maximum —
the paper's 3.125% error margin (= 1K / 32K).  Items outside the listed
bins are still counted exactly; when the list runs dry while items
remain, the owner runs a *replenish* scan (in WAFL, a background walk
of the bitmap metafiles) to refill it.

The implementation mirrors the paper's update rules:

* moving an item between bins is O(1) histogram arithmetic;
* an item rising into a listed bin is inserted into the list, displacing
  (unlisting) one item from the worst listed bin when at capacity;
* bins strictly better than the worst listed bin are always *fully*
  listed, which is what makes the error bound hold.

``to_pages`` / ``from_pages`` serialize the structure into exactly two
4 KiB pages, the representation embedded directly into the RAID-agnostic
TopAA metafile (paper section 3.4).
"""

from __future__ import annotations

import struct
from itertools import accumulate, chain, compress
from typing import AbstractSet, Iterable, Iterator

import numpy as np

from ..common.arrayops import in_few
from ..common.constants import HBPS_BIN_WIDTH, HBPS_LIST_CAPACITY
from ..common.errors import CacheError, SerializationError

__all__ = ["HBPS", "PAGE_SIZE"]

#: Size of one HBPS page; matches the WAFL buffer-cache page / block size.
PAGE_SIZE = 4096

_MAGIC = 0x48425053  # "HBPS"
_VERSION = 1
_UNLISTED = 0xFFFFFFFF
_HEADER = struct.Struct("<IIIIII")  # magic, version, max_score, bin_width, nbins, list_len
#: Page words after the header: per bin ``count, index`` (into the
#: list page) on page 0, one listed item id each on page 1.
_U32 = np.dtype("<u4")
#: ``ndarray.min`` / ``max`` without their Python-level wrappers (hot paths).
_min, _max = np.minimum.reduce, np.maximum.reduce
#: The bit of item ``i`` in byte ``i >> 3`` of the membership index.
_BIT = np.array([1 << k for k in range(8)], dtype=np.uint8)


class HBPS:
    """Histogram-based partial sort over integer-scored items.

    Parameters
    ----------
    max_score:
        Best possible score (e.g. 32,768 free blocks for an empty
        RAID-agnostic AA).  Scores must lie in ``[0, max_score]``.
    bin_width:
        Width of each histogram bin in score units (paper: 1K).
    list_capacity:
        Maximum number of items held in the list page (paper: 1,000).

    Notes
    -----
    Higher scores are better.  Bin 0 holds the best scores
    ``(max_score - bin_width, max_score]`` and the last bin holds score
    0 exactly, mirroring Figure 5's "31K-32K, 30K-31K, ..." layout.
    Items are non-negative ids (the list page stores them as ``u32``),
    and a batch (:meth:`update_many`) names each at most once; the
    membership index relies on both, and :meth:`check_invariants`
    catches a caller that breaks them.
    """

    __slots__ = (
        "max_score",
        "bin_width",
        "list_capacity",
        "nbins",
        "_counts",
        "_lists",
        "_pos",
        "_index",
        "_total",
        "_worst",
        "pops",
        "updates",
        "evictions",
        "replenishes",
    )

    def __init__(
        self,
        max_score: int,
        *,
        bin_width: int = HBPS_BIN_WIDTH,
        list_capacity: int = HBPS_LIST_CAPACITY,
    ) -> None:
        if max_score <= 0:
            raise ValueError("max_score must be positive")
        if bin_width <= 0 or bin_width > max_score:
            raise ValueError("bin_width must be in [1, max_score]")
        if list_capacity <= 0:
            raise ValueError("list_capacity must be positive")
        self.max_score = int(max_score)
        self.bin_width = int(bin_width)
        self.list_capacity = int(list_capacity)
        # Bin 0 covers (max-w, max]; scores of exactly 0 land in an
        # extra final bin so a completely full AA is distinguishable.
        self.nbins = -(-self.max_score // self.bin_width) + 1
        self._counts = np.zeros(self.nbins, dtype=np.int64)
        self._lists: list[list[int]] = [[] for _ in range(self.nbins)]
        self._pos: dict[int, int] = {}  # listed item -> its bin
        #: Membership index of ``_pos``, 1 bit per item id (bit ``i & 7``
        #: of byte ``i >> 3``), built by the first batch that needs it
        #: (:meth:`_listed_rows`) and kept in step by every list mutator.
        self._index: bytearray | None = None
        self._total = 0
        #: Upper bound on the worst listed bin: raised when an item is
        #: listed, walked down past emptied bins when it is next read.
        self._worst = -1
        # Operation counters for the CPU-overhead evaluation (§4.1.2).
        self.pops = 0
        self.updates = 0
        self.evictions = 0
        self.replenishes = 0

    # ------------------------------------------------------------------
    # Score/bin mapping
    # ------------------------------------------------------------------
    def bin_of(self, score: int) -> int:
        """Histogram bin index for ``score`` (0 = best bin)."""
        if not 0 <= score <= self.max_score:
            raise CacheError(f"score {score} outside [0, {self.max_score}]")
        if score == 0:
            return self.nbins - 1
        return (self.max_score - score) // self.bin_width

    def bin_bounds(self, bin_idx: int) -> tuple[int, int]:
        """Inclusive score bounds ``(lo, hi)`` covered by ``bin_idx``."""
        if not 0 <= bin_idx < self.nbins:
            raise CacheError(f"bin {bin_idx} outside [0, {self.nbins})")
        if bin_idx == self.nbins - 1:
            return (0, 0)  # a completely full AA
        hi = self.max_score - bin_idx * self.bin_width
        lo = max(hi - self.bin_width + 1, 1)
        return lo, hi

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def total_count(self) -> int:
        """Number of items currently tracked (listed or not)."""
        return self._total

    @property
    def listed_count(self) -> int:
        """Number of items currently present in the list page."""
        return len(self._pos)

    @property
    def counts(self) -> np.ndarray:
        """Read-only per-bin item counts (the histogram page)."""
        v = self._counts.view()
        v.flags.writeable = False
        return v

    @property
    def needs_replenish(self) -> bool:
        """True when items remain but none are listed (paper: the rare
        case where the allocator consumed more AAs than frees inserted,
        requiring a background bitmap walk to refill the list)."""
        return self._total > 0 and not self._pos

    @property
    def memory_bytes(self) -> int:
        """Modeled memory footprint: exactly two 4 KiB pages."""
        return 2 * PAGE_SIZE

    def is_listed(self, item: int) -> bool:
        """Whether ``item`` currently occupies a list-page slot."""
        return item in self._pos

    def __len__(self) -> int:
        return self._total

    def __contains__(self, item: int) -> bool:
        # Only listed items are individually identifiable; unlisted items
        # exist solely as histogram counts, as in the real structure.
        return item in self._pos

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def insert(self, item: int, score: int) -> None:
        """Begin tracking ``item`` with ``score``."""
        if item in self._pos:
            raise CacheError(f"item {item} already listed; update() it instead")
        b = self.bin_of(score)
        self._counts[b] += 1
        self._total += 1
        self._maybe_list(item, b)

    def update(self, item: int, old_score: int, new_score: int) -> None:
        """Move ``item`` from ``old_score`` to ``new_score``.

        The caller (the score keeper, which owns authoritative scores
        derived from the bitmap) supplies both scores; the histogram
        move is constant-time, exactly as in the paper.
        """
        self.updates += 1
        ob = self.bin_of(old_score)
        nb = self.bin_of(new_score)
        if self._counts[ob] <= 0:
            raise CacheError(f"histogram underflow in bin {ob} updating item {item}")
        if ob == nb:
            return
        self._counts[ob] -= 1
        self._counts[nb] += 1
        if item in self._pos:
            self._unlist(item)
        self._maybe_list(item, nb)

    def update_many(self, rows: np.ndarray, entering: AbstractSet[int] = frozenset()) -> None:
        """:meth:`insert` (the items in ``entering``, a subset of the
        batch's; their old scores are ignored) or :meth:`update` each
        ``(item, old, new)`` column of ``rows``, a ``(3, n)`` int64 array,
        as those calls would in row order — or, where one would raise,
        not at all.  The items must be distinct and non-negative (as
        :func:`~repro.core.score.as_changes` makes them).  The histogram
        moves in two ``bincount``s; only rows that change the list page
        take the listing policy, and only they become Python ints (why
        that is exact: DESIGN.md section 6)."""
        items = rows[0]
        below = self.max_score - rows[1:]  # how far each old and new score is below the maximum
        if entering:  # their rows, found by one search among the sorted entering items
            entered = in_few(items, entering)
            below[0][entered] = 0
        # Read as unsigned, ``below`` exceeds ``max_score`` exactly for a score out of range.
        if _max(below.view(np.uint64), axis=None) > self.max_score:
            raise CacheError(f"score outside [0, {self.max_score}]")
        if not self._pos.keys().isdisjoint(entering):
            raise CacheError("an entering item is already listed; update() it instead")
        bins = self._bins(below)  # in place
        ob, nb = bins[0], bins[1]
        if entering:
            ob[entered] = self.nbins  # an entering item leaves no bin
        counts = self._counts - np.bincount(ob, minlength=self.nbins + 1)[:-1]
        if _min(counts) < 0 and self._underflows(ob, nb):
            raise CacheError("histogram underflow in a batch of updates")
        np.add(counts, np.bincount(nb, minlength=self.nbins), out=self._counts)
        self.updates += items.size - len(entering)
        moved = ob != nb
        if self._total <= self.list_capacity + 1:
            page = moved.nonzero()[0]  # every moved row takes the listing policy
            for item, b in zip(items[page].tolist(), nb[page].tolist()):
                if item in entering:
                    self._total += 1
                elif item in self._pos:
                    self._unlist(item)
                self._maybe_list(item, b)
            return
        # Over ``list_capacity + 1`` items the worst listed bin ``w`` never
        # rises: rows listed now or landing better than ``w`` take the
        # listing policy; rows of unlisted items landing in ``w`` fill the
        # page's room, then each would only evict itself; all other rows
        # leave the page alone.
        self._total += len(entering)
        w = self._worst_listed_bin()
        w = -1 if w is None else w
        listed = self._listed_rows(items)
        page = (moved & (listed | (nb < w))).nonzero()[0]
        at_worst = (moved & (nb == w) & ~listed).nonzero()[0]
        done = 0
        for cut, item, b in zip(
            at_worst.searchsorted(page).tolist(), items[page].tolist(), nb[page].tolist()
        ):
            if cut > done:  # the rows landing in ``w`` before this one
                self._land_in_worst(items[at_worst[done:cut]], w)
                done = cut
            if item in self._pos:  # else evicted by an earlier row, or entering
                self._unlist(item)
            self._maybe_list(item, b)
        if done < at_worst.size:
            self._land_in_worst(items[at_worst[done:]], w)

    def _land_in_worst(self, items: np.ndarray, w: int) -> None:
        """Unlisted ``items`` moving into bin ``w``, the worst listed bin
        at batch start, while more than ``list_capacity + 1`` items are
        tracked.  While ``w`` is still the worst listed bin they fill the
        page's room in order; each one past that is listed and evicted at
        once, so it only counts an eviction."""
        if self._worst_listed_bin() != w:
            return  # ``w`` emptied: nothing lists into a bin worse than the worst
        room = self.list_capacity - len(self._pos)
        for item in items[:room].tolist():
            self._maybe_list(item, w)
        self.evictions += max(items.size - room, 0)

    def _listed_rows(self, items: np.ndarray) -> np.ndarray:
        """Mask of the listed ``items``: one gather on the membership
        index, built the first time (to cover ``items`` as well).  An
        item id past the index reads a bit of its last byte, so a
        ``True`` may be wrong; a ``False`` never is."""
        if self._index is None:
            self._reindex(int(_max(items)))
        bits = np.frombuffer(self._index, np.uint8).take(items >> 3, mode="clip")
        return (bits & _BIT.take(items & 7)).astype(bool)

    def _reindex(self, top: int) -> None:
        """Index the listed items afresh, in a bit array covering item
        ids up to ``top`` and the largest listed one."""
        ids = np.fromiter(self._pos, np.int64, len(self._pos))
        if ids.size:
            top = max(top, int(_max(ids)))
        self._index = bytearray(top // 8 + 1)
        np.bitwise_or.at(np.frombuffer(self._index, np.uint8), ids >> 3, _BIT.take(ids & 7))

    def _underflows(self, ob: np.ndarray, nb: np.ndarray) -> bool:
        """Whether a row of :meth:`update_many` (``ob == nbins`` where it
        enters) finds its old bin empty when the batch is replayed."""
        rows = np.arange(ob.size)
        delta = np.zeros((ob.size, self.nbins + 1), dtype=np.int64)
        delta[rows, ob] -= 1
        delta[rows, nb] += 1
        # Counts before each row; the entering rows' extra bin never runs dry.
        before = np.append(self._counts, ob.size) + delta.cumsum(axis=0) - delta
        return bool(np.count_nonzero(before[rows, ob] < 1))

    def remove(self, item: int, score: int) -> None:
        """Stop tracking ``item`` (e.g. its AA left this VBN range)."""
        b = self.bin_of(score)
        if self._counts[b] <= 0:
            raise CacheError(f"histogram underflow removing item {item} from bin {b}")
        self._counts[b] -= 1
        self._total -= 1
        if item in self._pos:
            self._unlist(item)

    def peek_best(self) -> tuple[int, int] | None:
        """Best listed ``(item, bin_index)`` without removing it."""
        for b, lst in enumerate(self._lists):
            if lst:
                return lst[-1], b
        return None

    def pop_best(self) -> tuple[int, int] | None:
        """Remove and return the best listed ``(item, bin_index)``.

        Returns ``None`` when no item is listed; check
        :attr:`needs_replenish` to distinguish "empty" from "list ran
        dry".  The returned item's true score lies within the popped
        bin's bounds, i.e. within one bin width of the tracked maximum.
        """
        best = self.peek_best()
        if best is None:
            return None
        item, b = best
        self._lists[b].pop()
        self._forget(item)
        self._counts[b] -= 1
        self._total -= 1
        self.pops += 1
        return item, b

    def rebuild(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Reset and rebuild from ``(item, score)`` pairs (adapter over
        :meth:`build`, which callers holding arrays use directly)."""
        flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int64).reshape(-1, 2)
        self.build(flat[:, 0], flat[:, 1])

    def build(self, items: np.ndarray, scores: np.ndarray) -> None:
        """Reset and rebuild from parallel ``items`` / ``scores`` arrays.

        This is the *replenish* operation: in WAFL, a background scan
        walks the bitmap metafiles, recomputes every AA score, and
        refills the histogram and list (paper section 3.3.2).  Bins are
        filled best-first, in ``items`` order within a bin, until the
        list page reaches capacity.  An out-of-range score, or a negative
        id among the items it would list (only those are stored), raises
        :class:`CacheError` before anything is reset.
        """
        items = np.asarray(items)
        scores = np.asarray(scores, dtype=np.int64)
        if items.size != scores.size:
            raise CacheError("items and scores differ in length")
        if scores.size and not 0 <= scores.min() <= scores.max() <= self.max_score:
            raise CacheError(f"score outside [0, {self.max_score}]")
        bins = self._bins(self.max_score - scores)
        counts = np.bincount(bins, minlength=self.nbins)
        # Only bins that reach the list page are sorted: up to the first
        # bin at which the running count fills it.
        last = int(counts.cumsum().searchsorted(self.list_capacity))
        reach = (bins <= last).nonzero()[0]
        order = reach[bins[reach].argsort(kind="stable")[: self.list_capacity]]
        listed = items[order]
        if listed.size and _min(listed) < 0:
            raise CacheError("a listed item id is negative")
        listed = listed.tolist()
        listed_bins = bins[order]
        self._counts = counts
        self._total = int(scores.size)
        self._pos = dict(zip(listed, listed_bins.tolist()))
        if self._index is not None:
            self._reindex(8 * len(self._index) - 1)
        self._lists = [[] for _ in range(self.nbins)]
        lo = 0
        for b, n in enumerate(np.bincount(listed_bins).tolist()):
            self._lists[b] = listed[lo : lo + n]
            lo += n
        self._worst = int(listed_bins[-1]) if listed else -1
        self.replenishes += 1

    def iter_listed(self) -> Iterator[tuple[int, int]]:
        """Yield ``(item, bin_index)`` for every listed item, best bin
        first (list-page order)."""
        for b, lst in enumerate(self._lists):
            for item in lst:
                yield item, b

    def _bins(self, below: np.ndarray) -> np.ndarray:
        """:meth:`bin_of` over in-range scores given as ``max_score - score``,
        in place: ``below`` becomes the bins."""
        if self.max_score % self.bin_width:  # else a score of 0 is alone in the last bin
            below[below == self.max_score] = (self.nbins - 1) * self.bin_width
        below //= self.bin_width
        return below

    # ------------------------------------------------------------------
    # Listing policy
    # ------------------------------------------------------------------
    def _worst_listed_bin(self) -> int | None:
        b = self._worst
        while b >= 0 and not self._lists[b]:
            b -= 1
        self._worst = b
        return b if b >= 0 else None

    def _maybe_list(self, item: int, b: int) -> None:
        """List ``item`` (bin ``b``) if doing so preserves the invariant
        that every bin strictly better than the worst listed bin is
        fully listed — the property behind the 3.125% error margin."""
        listed = len(self._pos)
        # "Everything else is listed and there is room" — the only case
        # where listing an item from a bin worse than the current worst
        # cannot break the full-listing invariant.
        if not (listed == self._total - 1 and listed < self.list_capacity):
            if b > self._worst:  # worse than the bound on the worst listed bin
                return
            worst = self._worst_listed_bin()
            if worst is None or b > worst:
                return
        index = self._index
        if index is not None:
            if item >> 3 >= len(index):
                index.extend(bytes((item >> 3) + 1 - len(index)))
            index[item >> 3] |= 1 << (item & 7)
        self._lists[b].append(item)
        self._pos[item] = b
        if b > self._worst:
            self._worst = b
        if self.listed_count > self.list_capacity:
            self._evict_one()

    def _evict_one(self) -> None:
        worst = self._worst_listed_bin()
        assert worst is not None
        self._forget(self._lists[worst].pop())
        self.evictions += 1

    def _forget(self, item: int) -> int:
        """Drop listed ``item`` from the position map and the membership
        index; return its bin (its bin list is the caller's to fix)."""
        if self._index is not None:
            self._index[item >> 3] &= ~(1 << (item & 7))
        return self._pos.pop(item)

    def _unlist(self, item: int) -> None:
        lst = self._lists[self._forget(item)]
        # Swap-remove for O(1): order within a bin is insignificant
        # ("the benefit provided by sorting AAs within a range was found
        # to be negligible", paper section 3.3.2).
        idx = lst.index(item)
        lst[idx] = lst[-1]
        lst.pop()

    # ------------------------------------------------------------------
    # Invariants (exercised by property-based tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise :class:`CacheError` if any structural invariant fails."""
        counts = self._counts.tolist()
        if sum(counts) != self._total:
            raise CacheError("histogram counts do not sum to total")
        if min(counts) < 0:
            raise CacheError("negative histogram count")
        listed = len(self._pos)
        if listed > self.list_capacity:
            raise CacheError("list page over capacity")
        sizes = list(map(len, self._lists))
        if sum(sizes) != listed:
            raise CacheError("position map does not match bin lists")
        worst = self._worst_listed_bin()
        w = -1 if worst is None else worst
        if any(sizes[w + 1 :]):
            raise CacheError(f"cached worst listed bin {worst} is not the worst listed bin")
        if worst is not None and sizes[:w] != counts[:w]:
            b = next(b for b in range(w) if sizes[b] != counts[b])
            raise CacheError(
                f"bin {b} (better than worst listed bin {worst}) is not fully "
                f"listed: {sizes[b]} of {counts[b]}"
            )
        if self._index is not None:
            index = np.frombuffer(self._index, np.uint8)
            ids = np.fromiter(self._pos, np.int64, listed)
            if ids.size and not 0 <= _min(ids) <= _max(ids) < 8 * index.size:
                raise CacheError("a listed item lies outside the membership index")
            if int(np.bitwise_count(index).sum()) != listed or not np.all(
                index.take(ids >> 3) & _BIT.take(ids & 7)
            ):
                raise CacheError("membership index does not match the list page")
        get = self._pos.get
        for b in compress(range(self.nbins), sizes):  # empty bins pass both checks
            lst = self._lists[b]
            if sizes[b] > counts[b]:
                raise CacheError(f"bin {b} lists more items than it counts")
            if list(map(get, lst)).count(b) != sizes[b]:
                item = next(item for item in lst if get(item) != b)
                raise CacheError(f"item {item} listed in bin {b} but mapped elsewhere")

    # ------------------------------------------------------------------
    # Two-page serialization (embedded into the TopAA metafile)
    # ------------------------------------------------------------------
    def to_pages(self) -> bytes:
        """Serialize into exactly two 4 KiB pages.

        Page 0 is the histogram (per-bin count and list index); page 1
        is the list page (item ids grouped by bin, Figure 5's layout).
        Only item ids are persisted — exact scores are recovered lazily
        by the background rebuild after mount, so a freshly loaded
        structure reports bin-resolution scores, as the real metafile
        does.
        """
        if self.nbins * 2 * _U32.itemsize + _HEADER.size > PAGE_SIZE:
            raise SerializationError("histogram does not fit in one page")
        if self.list_capacity * _U32.itemsize > PAGE_SIZE:
            raise SerializationError("list page does not fit in one page")
        pages = bytearray(2 * PAGE_SIZE)
        _HEADER.pack_into(
            pages, 0, _MAGIC, _VERSION, self.max_score, self.bin_width, self.nbins,
            self.listed_count,
        )
        sizes = list(map(len, self._lists))
        table = [0] * (2 * self.nbins)
        # A seeded cache's stale counts can run negative: wrap them as a cast does.
        table[::2] = self._counts.astype(_U32).tolist()
        table[1::2] = [s if n else _UNLISTED for s, n in zip(accumulate(sizes, initial=0), sizes)]
        struct.pack_into(f"<{2 * self.nbins}I", pages, _HEADER.size, *table)
        struct.pack_into(f"<{sum(sizes)}I", pages, PAGE_SIZE, *chain.from_iterable(self._lists))
        return bytes(pages)

    @classmethod
    def from_pages(
        cls,
        pages: bytes,
        *,
        list_capacity: int = HBPS_LIST_CAPACITY,
    ) -> "HBPS":
        """Reconstruct an HBPS from :meth:`to_pages` output.

        Loaded items are assigned their bin's upper-bound score at the
        owning cache layer; within this structure only bins matter.  A
        header or structure no HBPS can have raises
        :class:`SerializationError` naming ``bad-structure``.
        """
        if len(pages) != 2 * PAGE_SIZE:
            raise SerializationError(f"expected {2 * PAGE_SIZE} bytes, got {len(pages)}")
        magic, version, max_score, bin_width, nbins, list_len = _HEADER.unpack_from(pages, 0)
        if magic != _MAGIC:
            raise SerializationError("bad HBPS magic")
        if version != _VERSION:
            raise SerializationError(f"unsupported HBPS version {version}")
        try:
            out = cls(max_score, bin_width=bin_width, list_capacity=list_capacity)
        except ValueError as exc:
            raise SerializationError(f"HBPS page bad-structure: {exc}") from exc
        if nbins != out.nbins:
            raise SerializationError("inconsistent bin count in header")
        if 2 * nbins * _U32.itemsize + _HEADER.size > PAGE_SIZE:
            raise SerializationError("bin table in header does not fit the histogram page")
        if list_len * _U32.itemsize > PAGE_SIZE:
            raise SerializationError("list length in header does not fit the list page")
        table = struct.unpack_from(f"<{2 * nbins}I", pages, _HEADER.size)
        items = struct.unpack_from(f"<{list_len}I", pages, PAGE_SIZE)
        counts, starts = table[::2], table[1::2]
        out._counts = np.array(counts, dtype=np.int64)
        out._total = sum(counts)
        # A listed bin's entries run until the next listed bin's index
        # (bins are laid out in order), the last one's to the list's end.
        listed = [b for b, lo in enumerate(starts) if lo != _UNLISTED]
        bounds = [starts[b] for b in listed] + [list_len]
        for b, lo, hi in zip(listed, bounds, bounds[1:]):
            out._lists[b] = bin_items = list(items[lo:hi])
            out._pos.update(dict.fromkeys(bin_items, b))
            out._worst = b
        try:
            out.check_invariants()
        except CacheError as exc:
            raise SerializationError(f"HBPS page bad-structure: {exc}") from exc
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HBPS(max_score={self.max_score}, bins={self.nbins}, "
            f"total={self._total}, listed={self.listed_count})"
        )
