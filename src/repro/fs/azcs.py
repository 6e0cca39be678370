"""Advanced zone checksum (AZCS) device layout.

When a device's sector size aligns exactly to 4 KiB, WAFL cannot tuck
the 64-byte block identifier into per-sector slack; instead "63
consecutive blocks use the 64th as a checksum block" (paper section
3.2.4).  Checksum blocks are not addressable VBNs — they are an
artifact of the device LBA layout: data DBN ``d`` lands at device LBA
``d + d // 63``, and the checksum block of region ``r`` sits at LBA
``64 r + 63``.

Every CP write set must therefore be *expanded*: writing any data
block of a region also writes that region's checksum block.  When an
allocation area is a multiple of 63 data blocks (AZCS-aligned, Figure
4C), a region's data and checksum are always written together in one
sequential pass; otherwise the region straddling the AA boundary gets
its checksum block rewritten later — a random write behind the SMR
zone pointer, which is the cost Figure 9 measures.
"""

from __future__ import annotations

import numpy as np

from ..common.arrayops import run_starts
from ..common.constants import AZCS_DATA_BLOCKS, AZCS_REGION_BLOCKS

__all__ = ["azcs_expand", "azcs_device_blocks"]


def azcs_expand(dbns: np.ndarray) -> np.ndarray:
    """Map strictly increasing data DBNs to the device LBAs written,
    including the checksum block of every touched AZCS region.

    Returns a sorted, unique LBA array (data and checksum LBAs never
    coincide, so a stable sort merges the two sorted runs).
    """
    dbns = np.asarray(dbns, dtype=np.int64)
    regions = dbns // AZCS_DATA_BLOCKS
    lbas = dbns + regions
    checksum_lbas = regions[run_starts(regions)] * AZCS_REGION_BLOCKS + (AZCS_REGION_BLOCKS - 1)
    return np.sort(np.concatenate((lbas, checksum_lbas)), kind="stable")


def azcs_device_blocks(data_blocks: int) -> int:
    """Device capacity (in blocks/LBAs) needed to store ``data_blocks``
    data blocks under the AZCS layout."""
    regions = -(-data_blocks // AZCS_DATA_BLOCKS)
    return data_blocks + regions
