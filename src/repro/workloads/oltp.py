"""OLTP-style workload: mixed random reads and writes.

"We ran an internal OLTP benchmark ... characterized by predominantly
random read and write I/O operations (that model query and update
operations typical to a database)." (paper section 4.2)
"""

from __future__ import annotations

import numpy as np

from ..fs.filesystem import WaflSim
from .base import Workload
from .mixes import UniformOverwriteMix

__all__ = ["OLTPWorkload"]


class OLTPWorkload(Workload):
    """Random point reads and random record updates.

    Parameters
    ----------
    read_fraction:
        Fraction of operations that are reads (OLTP benchmarks commonly
        run ~2:1 read:write; default 0.65).
    blocks_per_write_op:
        4 KiB blocks dirtied per update (database page + log).
    """

    def __init__(
        self,
        sim: WaflSim,
        *,
        ops_per_cp: int = 8192,
        read_fraction: float = 0.65,
        blocks_per_write_op: int = 2,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(sim, ops_per_cp=ops_per_cp, seed=seed)
        self.mixes = {
            name: UniformOverwriteMix(
                size, blocks_per_op=blocks_per_write_op,
                read_fraction=read_fraction, seed=self.rng,
            )
            for name, size in self.vol_sizes.items()
        }
