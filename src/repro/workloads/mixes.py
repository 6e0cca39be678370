"""Per-volume op mixes: what ``n`` client operations on one volume do.

An :class:`OpMix` answers one question: "``n`` operations on this
volume were admitted — how many are reads, and which logical blocks do
the rest dirty (or delete)?"  The traffic engine asks it per tenant per
consistency point with a variable ``n``; the per-CP workload generators
(:class:`~repro.workloads.RandomOverwriteWorkload`,
:class:`~repro.workloads.OLTPWorkload`,
:class:`~repro.workloads.SequentialWriteWorkload`) ask it per volume with
their fixed share of ``ops_per_cp``, through mixes that share the
workload's one generator.

* :class:`UniformOverwriteMix` — the paper's 8 KiB aligned random
  overwrites, optionally with a share of random reads (OLTP);
* :class:`ZipfOverwriteMix` — Zipf-skewed overwrites with a scattered
  hot set (database-like reuse);
* :class:`SequentialMix` — an advancing cursor over the volume (the
  Figure 9 stream, and the fill phase of aging).
"""

from __future__ import annotations

import abc

import numpy as np

from ..common.rng import make_rng

__all__ = [
    "OpMix",
    "SequentialMix",
    "UniformOverwriteMix",
    "ZipfOverwriteMix",
]

#: Knuth's multiplicative-hash constant; scatters Zipf ranks across the
#: volume so the hot set is not one contiguous extent.
_SCATTER = 2654435761


class OpMix(abc.ABC):
    """Generates the reads and the dirtied/deleted logical blocks for
    admitted ops.

    Parameters
    ----------
    logical_blocks:
        Size of the tenant's volume (logical 4 KiB blocks).
    blocks_per_op:
        Blocks dirtied per client operation (2 models 8 KiB ops).
    read_fraction:
        Share of the admitted operations that are random reads
        (:meth:`split`): they dirty nothing, and the CP prices them as
        device reads (:attr:`~repro.fs.cp.CPBatch.reads`).
    seed:
        Deterministic RNG seed (or an existing Generator).
    """

    def __init__(
        self,
        logical_blocks: int,
        *,
        blocks_per_op: int = 2,
        read_fraction: float = 0.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if logical_blocks <= 0:
            raise ValueError("logical_blocks must be positive")
        if blocks_per_op <= 0:
            raise ValueError("blocks_per_op must be positive")
        if not 0.0 <= read_fraction < 1.0:
            raise ValueError("read_fraction must be in [0, 1)")
        self.logical_blocks = int(logical_blocks)
        self.blocks_per_op = int(blocks_per_op)
        self.read_fraction = float(read_fraction)
        self.rng = make_rng(seed)

    def split(self, n_ops: int) -> tuple[int, int]:
        """``(reads, writes)``: how many of ``n_ops`` admitted operations
        are reads, and how many are left for :meth:`next_ops`."""
        reads = int(n_ops * self.read_fraction)
        return reads, n_ops - reads

    @abc.abstractmethod
    def next_ops(self, n_ops: int) -> tuple[np.ndarray, np.ndarray]:
        """Blocks for ``n_ops`` modifying operations.

        Returns ``(writes, deletes)``: int64 arrays of logical block
        ids (duplicates allowed; the CP engine coalesces).  Most mixes
        return an empty ``deletes`` array.
        """

    def _adjacent_runs(self, starts: np.ndarray) -> np.ndarray:
        """Expand aligned start blocks into adjacent runs (an 8 KiB op
        dirties two adjacent 4 KiB blocks)."""
        return (
            starts[:, None] + np.arange(self.blocks_per_op, dtype=np.int64)[None, :]
        ).ravel()


class UniformOverwriteMix(OpMix):
    """Uniform random aligned overwrites — the paper's LUN clients.

    ``working_set_fraction`` < 1 confines the tenant to a hot prefix of
    its volume; a ``read_fraction`` makes it the OLTP mix of random point
    reads and record updates (paper section 4.2, Figure 8).
    """

    def __init__(
        self,
        logical_blocks: int,
        *,
        blocks_per_op: int = 2,
        working_set_fraction: float = 1.0,
        read_fraction: float = 0.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(logical_blocks, blocks_per_op=blocks_per_op,
                         read_fraction=read_fraction, seed=seed)
        if not 0.0 < working_set_fraction <= 1.0:
            raise ValueError("working_set_fraction must be in (0, 1]")
        self.working_set_fraction = float(working_set_fraction)

    def next_ops(self, n_ops: int) -> tuple[np.ndarray, np.ndarray]:
        if n_ops <= 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        span = max(1, int(self.logical_blocks * self.working_set_fraction))
        starts = self.rng.integers(
            0, max(span - self.blocks_per_op + 1, 1), size=n_ops, dtype=np.int64
        )
        return self._adjacent_runs(starts), np.empty(0, dtype=np.int64)


class ZipfOverwriteMix(OpMix):
    """Zipf-skewed overwrites: a few blocks absorb most of the traffic.

    Rank ``r`` (1 = hottest) maps to a volume position via a
    multiplicative hash, so the hot set is scattered across allocation
    areas instead of packed into one — the workload-mixing pattern that
    changes free-space behaviour on log-structured stores.

    Parameters
    ----------
    alpha:
        Zipf exponent (> 1); larger = more skew.  The default 1.2 gives
        the classic "90% of traffic on a small fraction of blocks".
    """

    def __init__(
        self,
        logical_blocks: int,
        *,
        alpha: float = 1.2,
        blocks_per_op: int = 2,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(logical_blocks, blocks_per_op=blocks_per_op, seed=seed)
        if alpha <= 1.0:
            raise ValueError("alpha must be > 1 for a proper Zipf law")
        self.alpha = float(alpha)

    def next_ops(self, n_ops: int) -> tuple[np.ndarray, np.ndarray]:
        if n_ops <= 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        span = max(self.logical_blocks - self.blocks_per_op + 1, 1)
        ranks = (self.rng.zipf(self.alpha, size=n_ops).astype(np.int64) - 1) % span
        starts = (ranks * _SCATTER) % span
        return self._adjacent_runs(starts), np.empty(0, dtype=np.int64)


class SequentialMix(OpMix):
    """Advancing-cursor writes: each op writes the next ``blocks_per_op``
    blocks of the volume, in order.

    Parameters
    ----------
    wrap:
        Wrap to block 0 after the last block (sustained streaming), or
        stop there: the mix is then :attr:`exhausted` and writes nothing
        more (fill-once aging).
    """

    def __init__(self, logical_blocks: int, *, blocks_per_op: int = 1, wrap: bool = True) -> None:
        super().__init__(logical_blocks, blocks_per_op=blocks_per_op)
        self.wrap = wrap
        self.cursor = 0
        #: Every block was written once (``wrap=False`` only).
        self.exhausted = False

    def next_ops(self, n_ops: int) -> tuple[np.ndarray, np.ndarray]:
        empty = np.empty(0, dtype=np.int64)
        if n_ops <= 0 or self.exhausted:
            return empty, empty
        size, cursor = self.logical_blocks, self.cursor
        want = n_ops * self.blocks_per_op
        if self.wrap:
            ids = (cursor + np.arange(want, dtype=np.int64)) % size
            self.cursor = (cursor + want) % size
        else:
            want = min(want, size - cursor)
            ids = cursor + np.arange(want, dtype=np.int64)
            self.cursor = cursor + want
            self.exhausted = self.cursor >= size
        return ids, empty
