"""File-system aging harness.

The paper ages its test systems before measuring: "the aggregate was
filled up to 55% and was thoroughly fragmented by applying heavy random
write traffic for a long period of time" (section 4.1); Figure 7's
older RAID groups were aged "by overwriting and freeing its blocks
several times until a random 50% of its blocks were used" (section
4.2).  :func:`age_filesystem` reproduces that recipe: a sequential
fill to the utilization target, then sustained random-overwrite churn
that fragments the free space through the COW path itself (so the
resulting per-AA free-space distribution is produced by the same
allocator the experiment then measures, not synthesized).
"""

from __future__ import annotations

import numpy as np

from ..common.errors import BitmapError
from ..fs.filesystem import WaflSim
from .random_overwrite import RandomOverwriteWorkload
from .sequential import SequentialWriteWorkload

__all__ = [
    "fill_volumes",
    "churn",
    "age_filesystem",
    "reset_measurement_state",
    "set_bitmap_checks",
    "popcount_audit",
]

#: Blocks each churn overwrite rewrites.
CHURN_BLOCKS_PER_OP = 2


def fill_volumes(sim: WaflSim, *, ops_per_cp: int = 16384, seed: int | None = 1) -> int:
    """Write every logical block of every volume once (sequentially).

    On a fresh system this consumes physical space sequentially — the
    "unaged file system" state of paper section 2.2.  Returns CPs run.
    Aggregate utilization after filling equals the ratio of logical to
    physical blocks, so size the volumes for the target utilization.
    """
    wl = SequentialWriteWorkload(
        sim, ops_per_cp=ops_per_cp, blocks_per_op=1, wrap=False, seed=seed
    )
    cps = 0
    while not wl.exhausted:
        sim.engine.run_cp(wl.next_batch())
        cps += 1
    return cps


def churn(
    sim: WaflSim,
    overwrite_blocks: int,
    *,
    ops_per_cp: int = 8192,
    seed: int | None = 2,
) -> int:
    """Apply ``overwrite_blocks`` worth of random overwrites (the
    "heavy random write traffic" fragmentation phase).  Returns CPs run.
    """
    wl = RandomOverwriteWorkload(
        sim, ops_per_cp=ops_per_cp, blocks_per_op=CHURN_BLOCKS_PER_OP, seed=seed
    )
    blocks_per_cp = ops_per_cp * CHURN_BLOCKS_PER_OP
    n_cps = max(1, int(np.ceil(overwrite_blocks / blocks_per_cp)))
    it = iter(wl)
    for _ in range(n_cps):
        sim.engine.run_cp(next(it))
    return n_cps


def age_filesystem(
    sim: WaflSim,
    *,
    churn_factor: float = 2.0,
    ops_per_cp: int = 16384,
    seed: int | None = 3,
) -> dict[str, float]:
    """Fill, then churn ``churn_factor`` x the logical space.

    Returns a small report (utilization, CPs run, selected-AA trace
    length) so callers can assert the aging took effect.  The
    measurement phase should reset ``sim.metrics`` / selection traces
    afterwards (see :func:`reset_measurement_state`).
    """
    fill_cps = fill_volumes(sim, ops_per_cp=ops_per_cp, seed=seed)
    total_logical = sim.total_logical_blocks
    churn_cps = churn(
        sim,
        int(total_logical * churn_factor),
        ops_per_cp=ops_per_cp,
        seed=None if seed is None else seed + 1,
    )
    return {
        "utilization": sim.utilization,
        "fill_cps": float(fill_cps),
        "churn_cps": float(churn_cps),
    }


def reset_measurement_state(sim: WaflSim) -> None:
    """Clear metrics and selection traces accumulated during aging so a
    measurement phase starts clean (device cumulative stats are also
    reset; bitmap/cache state is preserved)."""
    sim.metrics.cps.clear()
    sim.metrics.reset_series()
    sim.engine.cache_maintenance_us = 0.0
    for fs in sim.spaces():
        fs.reset_selection_trace()
    for dev in sim.store.devices:
        _reset_device(dev)


def set_bitmap_checks(sim: WaflSim, check: bool) -> None:
    """Toggle per-batch bitmap validation on every space's metafile.

    Benchmarks disable checking once aging completes (correctness is
    audited once at teardown via :func:`popcount_audit` instead of per
    batch) so the measurement phase times the allocation pipeline, not
    the validation.
    """
    for fs in sim.spaces():
        fs.metafile.bitmap.check = check


def popcount_audit(sim: WaflSim) -> None:
    """One final corruption check: every space's recomputed bitmap
    popcount must equal its running allocated counter.  Raises
    :class:`~repro.common.errors.BitmapError` on divergence."""
    for fs in sim.spaces():
        bm = fs.metafile.bitmap
        pc = bm.popcount()
        if pc != bm.allocated_count:
            raise BitmapError(
                f"teardown audit: {fs.where} popcount {pc} != allocated "
                f"counter {bm.allocated_count} (nblocks={bm.nblocks})"
            )


def _reset_device(dev) -> None:
    from ..devices.base import DeviceStats

    dev.stats = DeviceStats()
    if hasattr(dev, "relocated_blocks"):
        dev.relocated_blocks = 0
    if hasattr(dev, "rewrites"):
        dev.rewrites = 0
