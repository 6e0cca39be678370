"""Per-volume op mixes: the adapters between arrival processes and
the existing per-CP workload generators.

The classic generators in this package (:class:`RandomOverwriteWorkload`
and friends) produce whole-system :class:`~repro.fs.cp.CPBatch` objects
at a fixed ``ops_per_cp`` — the right shape for figure reproductions,
the wrong shape for a multi-tenant traffic engine that admits a
*variable* number of operations per tenant per consistency point.  An
:class:`OpMix` answers the question the traffic layer actually asks:
"tenant X just got ``n`` operations admitted — which logical blocks of
X's volume do they dirty (or delete)?"

Two concrete mixes cover the tenant populations the paper's
multi-client testbed mixes (section 4.1) plus the skewed access the
BIT-inference line of work shows matters on log-structured stores:

* :class:`UniformOverwriteMix` — the paper's 8 KiB aligned random
  overwrites (same idiom as :class:`RandomOverwriteWorkload`);
* :class:`ZipfOverwriteMix` — Zipf-skewed overwrites with a scattered
  hot set (database-like reuse).
"""

from __future__ import annotations

import abc

import numpy as np

from ..common.rng import make_rng

__all__ = [
    "OpMix",
    "UniformOverwriteMix",
    "ZipfOverwriteMix",
]

#: Knuth's multiplicative-hash constant; scatters Zipf ranks across the
#: volume so the hot set is not one contiguous extent.
_SCATTER = 2654435761


class OpMix(abc.ABC):
    """Generates the dirtied/deleted logical blocks for admitted ops.

    Parameters
    ----------
    logical_blocks:
        Size of the tenant's volume (logical 4 KiB blocks).
    blocks_per_op:
        Blocks dirtied per client operation (2 models 8 KiB ops).
    seed:
        Deterministic RNG seed (or an existing Generator).
    """

    def __init__(
        self,
        logical_blocks: int,
        *,
        blocks_per_op: int = 2,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if logical_blocks <= 0:
            raise ValueError("logical_blocks must be positive")
        if blocks_per_op <= 0:
            raise ValueError("blocks_per_op must be positive")
        self.logical_blocks = int(logical_blocks)
        self.blocks_per_op = int(blocks_per_op)
        self.rng = make_rng(seed)

    @abc.abstractmethod
    def next_ops(self, n_ops: int) -> tuple[np.ndarray, np.ndarray]:
        """Blocks for ``n_ops`` admitted operations.

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
    its volume, like :class:`~repro.workloads.RandomOverwriteWorkload`.
    """

    def __init__(
        self,
        logical_blocks: int,
        *,
        blocks_per_op: int = 2,
        working_set_fraction: float = 1.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(logical_blocks, blocks_per_op=blocks_per_op, seed=seed)
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
