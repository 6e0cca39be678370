"""Random-overwrite workload: the paper's primary stressor.

"A number of clients were set up to send 8 KiB random overwrites to
these LUNs ... Random overwrites create worst-case fragmentation in a
COW file system, because each overwrite frees the previously used
block." (paper section 4.1)
"""

from __future__ import annotations

import numpy as np

from ..fs.filesystem import WaflSim
from .base import Workload
from .mixes import UniformOverwriteMix

__all__ = ["RandomOverwriteWorkload"]


class RandomOverwriteWorkload(Workload):
    """Uniform random overwrites of already-written logical blocks.

    Parameters
    ----------
    blocks_per_op:
        4 KiB blocks dirtied per client operation (2 models the paper's
        8 KiB random overwrites).
    working_set_fraction:
        Fraction of each volume's logical space targeted (1.0 = whole
        volume).  Smaller values model hot working sets.
    """

    def __init__(
        self,
        sim: WaflSim,
        *,
        ops_per_cp: int = 8192,
        blocks_per_op: int = 2,
        working_set_fraction: float = 1.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(sim, ops_per_cp=ops_per_cp, seed=seed)
        self.mixes = {
            name: UniformOverwriteMix(
                size, blocks_per_op=blocks_per_op,
                working_set_fraction=working_set_fraction, seed=self.rng,
            )
            for name, size in self.vol_sizes.items()
        }
