"""NumPy-backed block allocation bitmap.

WAFL stores free-space information in flat *bitmap metafiles* indexed by
VBN: the i-th bit tracks the state of the i-th block (paper section
2.5).  :class:`Bitmap` is the in-memory representation of one such
bitmap: bit set = block allocated (in use), bit clear = block free.

The implementation keeps the bitmap as a contiguous ``uint8`` array and
vectorizes every operation with NumPy so that the simulator can sustain
hundreds of thousands of allocations per second in pure Python:

* population counts use :func:`numpy.bitwise_count` over a ``uint64``
  view of the bytes wherever the counted runs are whole words (a
  single word-wide pass over contiguous memory, per the HPC guide's
  "vectorize and stay contiguous" advice);
* batch bit updates build a packed span mask with :func:`numpy.packbits`
  and OR/AND it over the covered byte range in one vector pass (dense
  path), falling back to ``np.bitwise_or.at`` / ``np.bitwise_and.at``
  scatters only for batches too sparse for a span pass to pay off;
* free-block searches unpack only the byte range of a single allocation
  area, never the whole bitmap.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import BitmapError, SerializationError

__all__ = ["Bitmap"]

_BIT_MASKS = (np.uint8(1) << np.arange(8, dtype=np.uint8)).astype(np.uint8)

#: Density cutoff for the packed-span fast path: use it while the byte
#: span covering a batch is at most this many bytes per batch element.
_DENSE_SPAN_BYTES_PER_BIT = 8


class Bitmap:
    """Allocation bitmap over a VBN space of ``nblocks`` blocks.

    Parameters
    ----------
    nblocks:
        Size of the VBN space.  Must be a positive multiple of 8 so the
        bitmap occupies whole bytes (every real AA/metafile geometry
        satisfies this).
    check:
        When True (default), :meth:`allocate` rejects already-set bits
        and :meth:`free` rejects already-clear bits, catching
        double-allocation bugs at the point of corruption.  Benchmarks
        may disable checking for speed once correctness is established.
    """

    __slots__ = ("nblocks", "_bytes", "_allocated", "check")

    def __init__(self, nblocks: int, *, check: bool = True) -> None:
        if nblocks <= 0 or nblocks % 8:
            raise ValueError(f"nblocks must be a positive multiple of 8, got {nblocks}")
        self.nblocks = int(nblocks)
        self._bytes = np.zeros(self.nblocks // 8, dtype=np.uint8)
        self._allocated = 0
        self.check = check

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def allocated_count(self) -> int:
        """Total number of allocated (set) bits."""
        return self._allocated

    @property
    def free_count(self) -> int:
        """Total number of free (clear) bits."""
        return self.nblocks - self._allocated

    def popcount(self) -> int:
        """Authoritative allocated-bit count, recomputed from the
        backing bytes (one vectorized pass).  The invariant auditor
        cross-checks this against the cached :attr:`allocated_count`."""
        return self._count_bytes(0, self._bytes.size)

    @property
    def raw_bytes(self) -> np.ndarray:
        """Read-only view of the backing byte array (for persistence)."""
        v = self._bytes.view()
        v.flags.writeable = False
        return v

    def load_bytes(self, data: bytes | np.ndarray) -> None:
        """Replace the backing bytes with a persisted image.

        ``data`` must be exactly ``nblocks // 8`` bytes; the cached
        allocated count is recomputed from the new bytes (so the loaded
        image is authoritative, never the stale counter).  Raises
        :class:`SerializationError` on a length mismatch — the caller
        is holding an image for a different geometry.
        """
        arr = np.frombuffer(bytes(data), dtype=np.uint8)
        if arr.size != self._bytes.size:
            raise SerializationError(
                f"bitmap image is {arr.size} bytes, geometry needs {self._bytes.size}"
            )
        self._bytes[:] = arr
        self._allocated = self.popcount()

    def allocated_bits(self, start: int, stop: int) -> np.ndarray:
        """Unpacked allocation bits for the byte-aligned range
        ``[start, stop)``: a ``uint8`` array with 1 = allocated.

        Both bounds must be multiples of 8 (callers pass AA extents,
        which are always byte-aligned).  This is the bulk-scan primitive
        for stripe-major free-block searches.
        """
        if start % 8 or stop % 8:
            raise ValueError("allocated_bits requires byte-aligned bounds")
        self._validate_range(start, stop)
        return np.unpackbits(self._bytes[start >> 3 : stop >> 3], bitorder="little")

    def test(self, vbns: np.ndarray | int) -> np.ndarray:
        """Return a boolean array: True where the VBN is allocated."""
        vbns = np.atleast_1d(np.asarray(vbns, dtype=np.int64))
        self._validate(vbns)
        return (self._bytes[vbns >> 3] & _BIT_MASKS[vbns & 7]) != 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _span_mask(self, vbns: np.ndarray) -> tuple[int, int, np.ndarray] | None:
        """Dense-path helper: the byte span covering ``vbns`` and a
        packed bit mask for it, or ``None`` when the batch is too sparse.

        Allocator spans and CP free batches are clustered (an AA's worth
        of blocks, or one CP's random overwrites across a group), so a
        single packbits + whole-span OR/AND beats the per-element
        ``ufunc.at`` scatter by a wide margin.  Below one bit per
        ``_DENSE_SPAN_BYTES_PER_BIT`` span bytes the scatter wins.
        """
        lo = int(vbns.min())
        hi = int(vbns.max())
        b0 = lo >> 3
        b1 = (hi >> 3) + 1
        if (b1 - b0) > _DENSE_SPAN_BYTES_PER_BIT * vbns.size:
            return None
        bits = np.zeros((b1 - b0) << 3, dtype=np.uint8)
        bits[vbns - (b0 << 3)] = 1
        return b0, b1, np.packbits(bits, bitorder="little")

    def allocate(self, vbns: np.ndarray, *, trusted: bool = False) -> None:
        """Mark ``vbns`` allocated.

        ``vbns`` must contain no duplicates; with ``check`` enabled a
        :class:`BitmapError` is raised if any bit is already set.
        ``trusted`` batches (internal allocator chunks already known to
        be in-range ``int64`` arrays) skip the conversion and range
        validation; the double-allocation check still applies.
        """
        if not trusted:
            vbns = np.asarray(vbns, dtype=np.int64)
        if vbns.size == 0:
            return
        if not trusted:
            self._validate(vbns)
        dense = self._span_mask(vbns)
        if dense is not None:
            b0, b1, mask = dense
            seg = self._bytes[b0:b1]
            if self.check and np.any(seg & mask):
                hit = np.unpackbits(seg & mask, bitorder="little")
                bad = np.flatnonzero(hit) + (b0 << 3)
                raise BitmapError(f"double allocation of VBN(s) {bad[:8].tolist()}")
            seg |= mask
        else:
            byte_idx = vbns >> 3
            masks = _BIT_MASKS[vbns & 7]
            if self.check and np.any(self._bytes[byte_idx] & masks):
                bad = vbns[(self._bytes[byte_idx] & masks) != 0]
                raise BitmapError(f"double allocation of VBN(s) {bad[:8].tolist()}")
            np.bitwise_or.at(self._bytes, byte_idx, masks)
        self._allocated += int(vbns.size)

    def free(self, vbns: np.ndarray, *, trusted: bool = False) -> None:
        """Mark ``vbns`` free.

        ``vbns`` must contain no duplicates; with ``check`` enabled a
        :class:`BitmapError` is raised if any bit is already clear.
        ``trusted`` has the same meaning as for :meth:`allocate`.
        """
        if not trusted:
            vbns = np.asarray(vbns, dtype=np.int64)
        if vbns.size == 0:
            return
        if not trusted:
            self._validate(vbns)
        dense = self._span_mask(vbns)
        if dense is not None:
            b0, b1, mask = dense
            seg = self._bytes[b0:b1]
            if self.check and np.any(seg & mask != mask):
                hit = np.unpackbits(mask & ~seg, bitorder="little")
                bad = np.flatnonzero(hit) + (b0 << 3)
                raise BitmapError(f"double free of VBN(s) {bad[:8].tolist()}")
            seg &= ~mask
        else:
            byte_idx = vbns >> 3
            masks = _BIT_MASKS[vbns & 7]
            if self.check and np.any((self._bytes[byte_idx] & masks) == 0):
                bad = vbns[(self._bytes[byte_idx] & masks) == 0]
                raise BitmapError(f"double free of VBN(s) {bad[:8].tolist()}")
            np.bitwise_and.at(self._bytes, byte_idx, ~masks)
        self._allocated -= int(vbns.size)

    def set_range(self, start: int, stop: int) -> int:
        """Allocate every currently-free block in ``[start, stop)``.

        Returns the number of bits that transitioned to allocated.  Used
        by bulk fills (aging) where partial overlap with existing
        allocations is expected and permitted.
        """
        self._validate_range(start, stop)
        b0, b1 = self._byte_span(start, stop)
        before = self._count_bytes(b0, b1)
        self._apply_range_mask(start, stop, set_bits=True)
        after = self._count_bytes(b0, b1)
        self._allocated += after - before
        return after - before

    def clear_range(self, start: int, stop: int) -> int:
        """Free every currently-allocated block in ``[start, stop)``.

        Returns the number of bits that transitioned to free.
        """
        self._validate_range(start, stop)
        b0, b1 = self._byte_span(start, stop)
        before = self._count_bytes(b0, b1)
        self._apply_range_mask(start, stop, set_bits=False)
        after = self._count_bytes(b0, b1)
        self._allocated -= before - after
        return before - after

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count_range(self, start: int, stop: int) -> int:
        """Number of allocated blocks in ``[start, stop)``."""
        self._validate_range(start, stop)
        if start == stop:
            return 0
        full0 = -(-start // 8) * 8  # first byte-aligned bit >= start
        full1 = (stop // 8) * 8  # last byte-aligned bit <= stop
        if full0 >= full1:  # range inside a single byte (or spanning edge bits only)
            bits = self._unpack(start, stop)
            return int(bits.sum(dtype=np.int64))
        # full1 > full0 here: at least one whole byte lies in the range.
        total = self._count_bytes(full0 // 8, full1 // 8)
        if start < full0:
            total += int(self._unpack(start, full0).sum(dtype=np.int64))
        if stop > full1:
            total += int(self._unpack(full1, stop).sum(dtype=np.int64))
        return total

    def free_in_range(self, start: int, stop: int, limit: int | None = None) -> np.ndarray:
        """Ascending VBNs of free blocks in ``[start, stop)``.

        At most ``limit`` VBNs are returned when given.  This is the
        primitive the write allocator uses to assign "all free VBNs from
        the AA in sequential order" (paper section 3.1).

        On mostly-full ranges — the common case once an aggregate has
        aged — only the bytes with at least one clear bit (``!= 0xFF``)
        are unpacked, instead of the whole AA range.
        """
        self._validate_range(start, stop)
        if start == stop:
            return np.empty(0, dtype=np.int64)
        b0, b1 = self._byte_span(start, stop)
        buf = self._bytes[b0:b1]
        cand = np.flatnonzero(buf != 0xFF)
        if cand.size == 0:
            return np.empty(0, dtype=np.int64)
        if cand.size * 4 <= buf.size:
            # Sparse free bits: gather the candidate bytes and unpack
            # only those.  Candidate order is ascending, and bits within
            # a byte unpack LSB-first, so the result stays ascending.
            free = np.flatnonzero(np.unpackbits(buf[cand], bitorder="little") == 0)
            vbns = ((cand[free >> 3] + b0) << 3) + (free & 7)
            vbns = vbns[(vbns >= start) & (vbns < stop)]
        else:
            bits = np.unpackbits(buf, bitorder="little")
            vbns = np.flatnonzero(bits[start - b0 * 8 : stop - b0 * 8] == 0) + start
        if limit is not None:
            vbns = vbns[:limit]
        return vbns

    def allocated_in_range(self, start: int, stop: int, limit: int | None = None) -> np.ndarray:
        """Ascending VBNs of allocated blocks in ``[start, stop)``."""
        self._validate_range(start, stop)
        bits = self._unpack(start, stop)
        idx = np.flatnonzero(bits != 0)
        if limit is not None:
            idx = idx[:limit]
        return idx + start

    def counts_per_chunk(self, chunk: int) -> np.ndarray:
        """Allocated-bit count for each consecutive ``chunk``-sized range.

        ``chunk`` must be a multiple of 8 and divide ``nblocks``.  This
        is the bulk primitive behind computing *all* AA scores in one
        pass (a full bitmap walk, as done when rebuilding an AA cache
        without a TopAA metafile, paper section 3.4).
        """
        if chunk <= 0 or chunk % 8 or self.nblocks % chunk:
            raise ValueError(f"chunk must be a multiple of 8 dividing {self.nblocks}")
        return self._popcounts(0, self._bytes.size, chunk // 8)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _popcounts(self, b0: int, b1: int, width: int) -> np.ndarray:
        """Set bits in each consecutive ``width``-byte run of bytes
        ``[b0, b1)`` — the one popcount behind every count here.  Runs
        that are whole aligned 64-bit words are counted a word at a time
        through a ``uint64`` view, anything else a byte at a time; the
        sum widens as it reduces, so there is no ``int64`` temporary."""
        buf = self._bytes[b0:b1]
        if not (b0 % 8 or width % 8):
            buf, width = buf.view(np.uint64), width // 8
        return np.bitwise_count(buf).reshape(-1, width).sum(axis=1, dtype=np.int64)

    def _count_bytes(self, b0: int, b1: int) -> int:
        """Set bits in bytes ``[b0, b1)``."""
        return int(self._popcounts(b0, b1, b1 - b0)[0]) if b1 > b0 else 0

    def _validate(self, vbns: np.ndarray) -> None:
        if self.check and vbns.size:
            lo = int(vbns.min())
            hi = int(vbns.max())
            if lo < 0 or hi >= self.nblocks:
                raise BitmapError(f"VBN out of range: [{lo}, {hi}] vs nblocks={self.nblocks}")

    def _validate_range(self, start: int, stop: int) -> None:
        if not (0 <= start <= stop <= self.nblocks):
            raise BitmapError(f"bad range [{start}, {stop}) vs nblocks={self.nblocks}")

    @staticmethod
    def _byte_span(start: int, stop: int) -> tuple[int, int]:
        return start // 8, -(-stop // 8)

    def _unpack(self, start: int, stop: int) -> np.ndarray:
        """Unpack bits ``[start, stop)`` into a 0/1 uint8 array."""
        if start == stop:
            return np.empty(0, dtype=np.uint8)
        b0, b1 = self._byte_span(start, stop)
        bits = np.unpackbits(self._bytes[b0:b1], bitorder="little")
        return bits[start - b0 * 8 : stop - b0 * 8]

    def _apply_range_mask(self, start: int, stop: int, *, set_bits: bool) -> None:
        if start == stop:
            return
        b0, b1 = self._byte_span(start, stop)
        nbits = (b1 - b0) * 8
        mask_bits = np.zeros(nbits, dtype=np.uint8)
        mask_bits[start - b0 * 8 : stop - b0 * 8] = 1
        mask = np.packbits(mask_bits, bitorder="little")
        if set_bits:
            self._bytes[b0:b1] |= mask
        else:
            self._bytes[b0:b1] &= ~mask

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Bitmap(nblocks={self.nblocks}, allocated={self._allocated}, "
            f"free={self.free_count})"
        )
