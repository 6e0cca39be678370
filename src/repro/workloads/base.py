"""Workload base: iterators that yield per-CP client batches.

A workload is any iterable of :class:`~repro.fs.cp.CPBatch`; the
classes here add the shared plumbing — volume discovery, per-volume op
splitting, deterministic RNG — used by the concrete generators, which
draw each volume's share through an :class:`~repro.workloads.mixes.OpMix`
holding the workload's one generator.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..common.rng import make_rng
from ..fs.cp import CPBatch
from ..fs.filesystem import WaflSim
from .mixes import OpMix

__all__ = ["Workload"]


class Workload:
    """Base class for per-CP batch generators.

    Parameters
    ----------
    sim:
        The simulator the workload targets (used to discover volume
        names and logical sizes).
    ops_per_cp:
        Client operations folded into each consistency point; WAFL
        "collects the results of thousands of modifying operations"
        per CP (paper section 2.1).
    seed:
        Deterministic RNG seed.
    """

    def __init__(
        self,
        sim: WaflSim,
        *,
        ops_per_cp: int = 8192,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if ops_per_cp <= 0:
            raise ValueError("ops_per_cp must be positive")
        self.ops_per_cp = int(ops_per_cp)
        self.rng = make_rng(seed)
        self.vol_sizes: dict[str, int] = {
            name: vol.spec.logical_blocks for name, vol in sim.vols.items()
        }
        if not self.vol_sizes:
            raise ValueError("simulator has no volumes")
        #: One op mix per volume, in volume order (set by the subclass).
        self.mixes: dict[str, OpMix] = {}

    def _draw(self, n_ops: int) -> dict[str, np.ndarray]:
        """Each volume's blocks for its share of ``n_ops`` modifying ops,
        split by logical size (volumes that write nothing are left out)."""
        total = sum(self.vol_sizes.values())
        writes = {}
        for name, size in self.vol_sizes.items():
            ids, _ = self.mixes[name].next_ops(max(1, round(n_ops * size / total)))
            if ids.size:
                writes[name] = ids
        return writes

    def next_batch(self) -> CPBatch:
        """The next per-CP batch: ``ops_per_cp`` operations, the reads
        among them as the mixes split them (every volume's mix carries
        the workload's one read fraction), the writes drawn per volume."""
        reads, writes = next(iter(self.mixes.values())).split(self.ops_per_cp)
        return CPBatch(writes=self._draw(writes), ops=self.ops_per_cp, reads=reads)

    def __iter__(self) -> Iterator[CPBatch]:
        while True:
            yield self.next_batch()
