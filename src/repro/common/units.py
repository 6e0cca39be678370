"""Unit helpers for sizes.

The simulator internally measures storage in 4 KiB blocks.  These
helpers keep conversions explicit at API boundaries (simlint's U301
points here).
"""

from __future__ import annotations

from .constants import BLOCK_SIZE

GIB = 1024**3


def bytes_to_blocks(nbytes: int) -> int:
    """Convert a byte count to whole 4 KiB blocks (must divide evenly)."""
    if nbytes % BLOCK_SIZE:
        raise ValueError(f"{nbytes} bytes is not a multiple of {BLOCK_SIZE}")
    return nbytes // BLOCK_SIZE


def blocks_to_bytes(nblocks: int) -> int:
    """Convert a 4 KiB block count to bytes."""
    return nblocks * BLOCK_SIZE


def gib_to_blocks(gib: float) -> int:
    """Convert GiB to 4 KiB blocks, rounding down."""
    return int(gib * GIB) // BLOCK_SIZE


def blocks_to_gib(nblocks: int) -> float:
    """Convert 4 KiB blocks to GiB."""
    return nblocks * BLOCK_SIZE / GIB
