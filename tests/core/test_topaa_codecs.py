"""The TopAA page codecs read and write the pages with ``struct`` and
Python lists.  The NumPy versions they replaced are kept here, verbatim,
as oracles: every page must be byte-identical, every decoded structure
equal, and every refusal the same — apart from one deliberate change:
a page whose header or structure no HBPS can have (the old decoder's
``CacheError`` / ``ValueError``) is now a :class:`SerializationError`
naming ``bad-structure``, so the mount falls back to the bitmap walk
instead of aborting."""

from __future__ import annotations

from itertools import chain

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.constants import BLOCK_SIZE, HBPS_LIST_CAPACITY
from repro.common.errors import CacheError, SerializationError
from repro.core import HBPS, RAIDAgnosticAACache, deserialize_heap_seed, serialize_heap_seed
from repro.core.hbps import _HEADER, _MAGIC, _U32, _UNLISTED, _VERSION, PAGE_SIZE
from repro.core.topaa import _SENTINEL

# ----------------------------------------------------------------------
# Oracles: the NumPy codecs, verbatim apart from the names of the
# classes they hang on (``OldHBPS.from_pages`` in the cache's decoder).


class OldHBPS(HBPS):
    __slots__ = ()

    def check_invariants(self) -> None:
        """Raise :class:`CacheError` if any structural invariant fails."""
        if int(self._counts.sum()) != self._total:
            raise CacheError("histogram counts do not sum to total")
        if np.any(self._counts < 0):
            raise CacheError("negative histogram count")
        if self.listed_count > self.list_capacity:
            raise CacheError("list page over capacity")
        listed_per_bin = [len(lst) for lst in self._lists]
        if sum(listed_per_bin) != self.listed_count:
            raise CacheError("position map does not match bin lists")
        worst = self._worst_listed_bin()
        if worst != max((b for b, n in enumerate(listed_per_bin) if n), default=None):
            raise CacheError(f"cached worst listed bin {worst} is not the worst listed bin")
        if worst is not None:
            for b in range(worst):
                if listed_per_bin[b] != self._counts[b]:
                    raise CacheError(
                        f"bin {b} (better than worst listed bin {worst}) is not fully "
                        f"listed: {listed_per_bin[b]} of {self._counts[b]}"
                    )
        for b, lst in enumerate(self._lists):
            if len(lst) > self._counts[b]:
                raise CacheError(f"bin {b} lists more items than it counts")
            for item in lst:
                if self._pos.get(item) != b:
                    raise CacheError(f"item {item} listed in bin {b} but mapped elsewhere")

    def to_pages(self) -> bytes:
        if self.nbins * 2 * _U32.itemsize + _HEADER.size > PAGE_SIZE:
            raise SerializationError("histogram does not fit in one page")
        if self.list_capacity * _U32.itemsize > PAGE_SIZE:
            raise SerializationError("list page does not fit in one page")
        page0 = bytearray(PAGE_SIZE)
        _HEADER.pack_into(
            page0, 0, _MAGIC, _VERSION, self.max_score, self.bin_width, self.nbins,
            self.listed_count,
        )
        table = np.empty((self.nbins, 2), dtype=_U32)
        table[:, 0] = self._counts
        sizes = np.array([len(lst) for lst in self._lists])
        table[:, 1] = np.where(sizes > 0, np.cumsum(sizes) - sizes, _UNLISTED)
        page0[_HEADER.size : _HEADER.size + table.nbytes] = table.tobytes()
        page1 = bytearray(PAGE_SIZE)
        arr = np.fromiter(chain.from_iterable(self._lists), dtype=_U32)
        page1[: arr.nbytes] = arr.tobytes()
        return bytes(page0) + bytes(page1)

    @classmethod
    def from_pages(
        cls,
        pages: bytes,
        *,
        list_capacity: int = HBPS_LIST_CAPACITY,
    ) -> "HBPS":
        if len(pages) != 2 * PAGE_SIZE:
            raise SerializationError(f"expected {2 * PAGE_SIZE} bytes, got {len(pages)}")
        magic, version, max_score, bin_width, nbins, list_len = _HEADER.unpack_from(pages, 0)
        if magic != _MAGIC:
            raise SerializationError("bad HBPS magic")
        if version != _VERSION:
            raise SerializationError(f"unsupported HBPS version {version}")
        out = cls(max_score, bin_width=bin_width, list_capacity=list_capacity)
        if nbins != out.nbins:
            raise SerializationError("inconsistent bin count in header")
        if 2 * nbins * _U32.itemsize + _HEADER.size > PAGE_SIZE:
            raise SerializationError("bin table in header does not fit the histogram page")
        if list_len * _U32.itemsize > PAGE_SIZE:
            raise SerializationError("list length in header does not fit the list page")
        items = np.frombuffer(pages, dtype=_U32, count=list_len, offset=PAGE_SIZE)
        table = np.frombuffer(
            pages, dtype=_U32, count=2 * nbins, offset=_HEADER.size
        ).reshape(nbins, 2)
        out._counts[:] = table[:, 0]
        out._total = int(out._counts.sum())
        # A listed bin's entries run until the next listed bin's index
        # (bins are laid out in order), the last one's to the list's end.
        listed = np.flatnonzero(table[:, 1] != _UNLISTED).tolist()
        starts = table[listed, 1].tolist()
        for b, lo, hi in zip(listed, starts, starts[1:] + [list_len]):
            out._lists[b] = bin_items = items[lo:hi].tolist()
            out._pos.update(dict.fromkeys(bin_items, b))
            out._worst = b
        out.check_invariants()
        return out


class OldCache(RAIDAgnosticAACache):
    __slots__ = ()

    @classmethod
    def from_pages(
        cls,
        pages: bytes,
        num_aas: int,
        *,
        list_capacity: int = HBPS_LIST_CAPACITY,
    ) -> "RAIDAgnosticAACache":
        hbps = OldHBPS.from_pages(pages, list_capacity=list_capacity)
        cache = cls(
            max(num_aas, 1),
            hbps.max_score,
            bin_width=hbps.bin_width,
            list_capacity=list_capacity,
        )
        cache._hbps = hbps
        cache._seeded = True
        for aa, b in hbps.iter_listed():
            cache._assumed[aa] = hbps.bin_bounds(b)[1]
        return cache


def deserialize_heap_seed_oracle(block: bytes) -> list[tuple[int, int]]:
    if len(block) != BLOCK_SIZE:
        raise SerializationError(f"TopAA block must be {BLOCK_SIZE} bytes, got {len(block)}")
    arr = np.frombuffer(block, dtype=np.uint32)
    pairs: list[tuple[int, int]] = []
    for i in range(0, arr.size, 2):
        if arr[i] == _SENTINEL:
            break
        pairs.append((int(arr[i]), int(arr[i + 1])))
    return pairs


# ----------------------------------------------------------------------
# Structures and outcomes, compared field by field.


def hbps_state(h: HBPS) -> tuple:
    return (
        h.max_score, h.bin_width, h.list_capacity, h.nbins, h._counts.dtype,
        h._counts.tolist(), h._lists, list(h._pos.items()), h._total, h._worst,
        h.pops, h.updates, h.evictions, h.replenishes,
    )


def cache_state(c: RAIDAgnosticAACache) -> tuple:
    return (
        c.num_aas, c.aa_blocks, hbps_state(c._hbps), c._out, c._seeded,
        list(c._assumed.items()), c.selects,
    )


def outcome(decode, *args, **kw):
    try:
        return "ok", cache_state(decode(*args, **kw))
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return type(exc), str(exc)


def expected(old):
    """The new decoder's outcome for the old one's: the same, except
    that a structural refusal is a ``bad-structure`` SerializationError."""
    kind, detail = old
    if kind in (CacheError, ValueError):
        return SerializationError, f"HBPS page bad-structure: {detail}"
    return old


# Bins must fit the histogram page: max_score / bin_width <= 508.
SHAPES = [(32768, 1024), (32768, 2048), (1024, 64), (1000, 7), (100, 1)]


@st.composite
def hbps_states(draw):
    """An HBPS after ``build`` and a random run of ``pop_best`` and
    ``update_many`` (popped items re-enter; tracked ones move), with
    the scores it tracks."""
    max_score, bin_width = draw(st.sampled_from(SHAPES))
    capacity = draw(st.integers(1, 1000))
    n = draw(st.integers(0, 1200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.integers(0, max_score + 1, size=n)
    if draw(st.booleans()):  # clustered scores fill few bins
        scores = np.minimum(scores, rng.integers(0, max_score + 1, size=n))
    h = HBPS(max_score, bin_width=bin_width, list_capacity=capacity)
    h.build(np.arange(n), scores)
    out: set[int] = set()
    for _ in range(draw(st.integers(0, 6))):
        for _ in range(int(rng.integers(0, min(n, 2 * capacity) + 1))):
            popped = h.pop_best()
            if popped is None:
                break
            out.add(popped[0])
        if not n:
            continue
        items = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        news = rng.integers(0, max_score + 1, size=items.size)
        h.update_many(np.array((items, scores[items], news)), out.intersection(items.tolist()))
        out.difference_update(items.tolist())
        scores[items] = news
    h.check_invariants()
    return h, n


@given(state=hbps_states())
@settings(max_examples=60, deadline=None)
def test_pages_and_decoded_structures_match_the_oracles(state):
    h, n = state
    pages = h.to_pages()
    assert pages == OldHBPS.to_pages(h)
    cap = h.list_capacity
    old = OldHBPS.from_pages(pages, list_capacity=cap)
    assert hbps_state(HBPS.from_pages(pages, list_capacity=cap)) == hbps_state(old)
    assert outcome(RAIDAgnosticAACache.from_pages, pages, n, list_capacity=cap) == outcome(
        OldCache.from_pages, pages, n, list_capacity=cap
    )


def test_out_of_range_counts_wrap_like_the_oracle():
    """A seeded cache's stale histogram can run negative; the page
    holds each count modulo 2**32, as NumPy's cast wrote it."""
    h = HBPS(1024, bin_width=64, list_capacity=4)
    h.build(np.arange(6), np.array([1024, 1000, 500, 3, 0, 0]))
    h._counts[2] -= 3
    h._counts[5] += 2**32 + 7
    assert h.to_pages() == OldHBPS.to_pages(h)


@given(state=hbps_states(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_flipped_pages_decode_or_refuse_like_the_oracles(state, data):
    h, n = state
    pages = bytearray(h.to_pages())
    list_end = PAGE_SIZE + 4 * h.listed_count + 8
    table_end = _HEADER.size + 8 * h.nbins + 8
    # Bytes 9-11 (max_score's high bits) are never flipped: both
    # decoders build the header's structure before they check its bin
    # count, and a large max_score costs gigabytes of empty bins.
    where = st.sampled_from([0, 4, 8, 12, 13, 14, 15, 16, 20]) | st.integers(
        _HEADER.size, table_end
    ) | st.integers(PAGE_SIZE, list_end)
    for _ in range(data.draw(st.integers(1, 3))):
        pos = data.draw(where)
        pages[pos] ^= data.draw(st.integers(1, 255))
    pages = bytes(pages)
    cap = data.draw(st.sampled_from([h.list_capacity, max(h.list_capacity - 1, 1)]))
    old = outcome(OldCache.from_pages, pages, n, list_capacity=cap)
    assert outcome(RAIDAgnosticAACache.from_pages, pages, n, list_capacity=cap) == expected(old)


def refusal(check) -> str | None:
    try:
        check()
    except CacheError as exc:
        return str(exc)
    return None


def test_every_invariant_check_names_the_same_first_failure():
    """Structures that break several checks at once: the first failure
    named — and the cached worst bin left behind — match the oracle."""
    rng = np.random.default_rng(5)
    for trial in range(600):
        h = HBPS(1024, bin_width=64, list_capacity=int(rng.integers(1, 40)))
        h.build(np.arange(60), rng.integers(0, 1025, size=60) // int(rng.integers(1, 4)))
        for _ in range(int(rng.integers(1, 5))):
            b, b2 = rng.integers(0, h.nbins, size=2).tolist()
            match int(rng.integers(0, 7)):
                case 0:
                    h._counts[b] += int(rng.integers(-2, 3))
                case 1 if h._lists[b]:
                    h._lists[b].pop()
                case 2 if h._pos:
                    h._pos[int(rng.choice(list(h._pos)))] = b
                case 3:
                    h._lists[b].append(int(rng.integers(0, 60)))
                case 4:
                    h._worst = int(rng.integers(-1, h.nbins))
                case 5:  # the total stays right
                    h._counts[b] -= 1
                    h._counts[b2] += 1
                case _:
                    h._total += int(rng.integers(-1, 2))
        twin = OldHBPS(1024, bin_width=64, list_capacity=h.list_capacity)
        twin._counts, twin._lists = h._counts.copy(), [list(lst) for lst in h._lists]
        twin._pos, twin._total, twin._worst = dict(h._pos), h._total, h._worst
        got, want = refusal(h.check_invariants), refusal(twin.check_invariants)
        assert got == want, trial
        assert h._worst == twin._worst, trial


@given(
    pairs=st.lists(st.tuples(st.integers(0, 2**32 - 2), st.integers(0, 2**32 - 1)), max_size=512),
    tail=st.binary(max_size=64),
)
@settings(max_examples=100, deadline=None)
def test_heap_seeds_decode_to_the_same_pairs(pairs, tail):
    words = list(chain.from_iterable(pairs))
    block = np.full(BLOCK_SIZE // 4, _SENTINEL, dtype=np.uint32)
    block[: len(words)] = words
    raw = bytearray(block.tobytes())
    # Bytes past a sentinel are never read, whatever they hold.
    start = min(8 * len(pairs) + 4, BLOCK_SIZE)
    raw[start : start + len(tail)] = tail[: BLOCK_SIZE - start]
    raw = bytes(raw[:BLOCK_SIZE])
    assert deserialize_heap_seed(raw) == deserialize_heap_seed_oracle(raw)


@given(scores=st.lists(st.integers(0, 32768), max_size=600))
@settings(max_examples=40, deadline=None)
def test_serialized_heap_seeds_decode_like_the_oracle(scores):
    block = serialize_heap_seed(np.array(scores, dtype=np.int64))
    assert deserialize_heap_seed(block) == deserialize_heap_seed_oracle(block)
