"""Sequential write workload.

Models streaming writes (the Figure 9 SMR experiment issues "sequential
writes to an unaged file system") and doubles as the fill phase of the
aging harness: each pass touches every logical block exactly once in
order, consuming physical space sequentially on a fresh system.
"""

from __future__ import annotations

import numpy as np

from ..fs.cp import CPBatch
from ..fs.filesystem import WaflSim
from .base import Workload
from .mixes import SequentialMix

__all__ = ["SequentialWriteWorkload"]


class SequentialWriteWorkload(Workload):
    """Advancing-cursor writes over each volume's logical space.

    Parameters
    ----------
    blocks_per_op:
        4 KiB blocks per client write operation.
    wrap:
        Whether to wrap to offset 0 after covering the volume (True
        models sustained streaming; False makes the iterator finite —
        useful for fill-once aging).
    """

    def __init__(
        self,
        sim: WaflSim,
        *,
        ops_per_cp: int = 8192,
        blocks_per_op: int = 1,
        wrap: bool = True,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(sim, ops_per_cp=ops_per_cp, seed=seed)
        self.mixes = {
            name: SequentialMix(size, blocks_per_op=blocks_per_op, wrap=wrap)
            for name, size in self.vol_sizes.items()
        }

    @property
    def exhausted(self) -> bool:
        """True when every volume was fully covered (wrap=False only)."""
        return all(mix.exhausted for mix in self.mixes.values())

    def next_batch(self) -> CPBatch:
        writes = self._draw(self.ops_per_cp)
        ops = sum(max(1, ids.size // self.mixes[name].blocks_per_op)
                  for name, ids in writes.items())
        return CPBatch(writes=writes, ops=ops)
