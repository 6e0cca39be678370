"""Identity of pending-span batched and eager bitmap flushing.

The write allocators batch each AA's taken span into one bitmap scatter
and one score delta per synchronization point (AA switch, release, CP
boundary).  The reference here flushes at the end of *every* allocation
call instead: AA switches already flush inside a call and nothing reads
the bitmap mid-call, so that is the per-chunk eager flush at every
observable point.  The batched pass must reach bit-for-bit the same
state (per-CP stats, bitmap bytes, free counts, maps) on the same
workload and seed.
"""

from __future__ import annotations

import functools
from dataclasses import asdict

import numpy as np
import pytest

from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.core.allocator import LinearAllocator, RAIDGroupAllocator
from repro.fs import WaflSim
from repro.workloads import RandomOverwriteWorkload


def _run(n_cps: int = 6) -> tuple[WaflSim, list[dict]]:
    phys = 3 * 32768
    spec = AggregateSpec(
        tiers=(TierSpec(label="ssd", media="ssd", ndata=3,
                        blocks_per_disk=32768, stripes_per_aa=2048),),
        volumes=(
            VolumeDecl("volA", logical_blocks=phys // 4),
            VolumeDecl("volB", logical_blocks=phys // 8),
        ),
    )
    sim = WaflSim.build(spec, seed=7)
    workload = iter(RandomOverwriteWorkload(sim, ops_per_cp=512, seed=5))
    stats = [asdict(sim.engine.run_cp(next(workload))) for _ in range(n_cps)]
    return sim, stats


@pytest.fixture
def eager_run(monkeypatch):
    """The same run with both allocators flushing their pending span on
    return from every allocation call, plus how many calls flushed."""
    flushes = {"allocate": 0, "take_stripe_chunks": 0}

    def flushing(method):
        @functools.wraps(method)
        def eager(self, *args, **kwargs):
            result = method(self, *args, **kwargs)
            flushes[method.__name__] += self.pending_count > 0
            self.flush_pending()
            return result

        return eager

    with monkeypatch.context() as m:
        m.setattr(LinearAllocator, "allocate", flushing(LinearAllocator.allocate))
        m.setattr(
            RAIDGroupAllocator,
            "take_stripe_chunks",
            flushing(RAIDGroupAllocator.take_stripe_chunks),
        )
        sim, stats = _run()
    return sim, stats, flushes


class TestFlushModeIdentity:
    def test_cp_stats_and_bitmap_state_match(self, eager_run):
        scalar, scalar_stats, flushes = eager_run
        # The twin really was eager, in both allocators.
        assert flushes["allocate"] > 0 and flushes["take_stripe_chunks"] > 0
        batched, batched_stats = _run()
        assert batched_stats == scalar_stats
        assert batched.store.free_count == scalar.store.free_count
        for gb, gs in zip(batched.store.groups, scalar.store.groups):
            assert np.array_equal(
                gb.metafile.bitmap.raw_bytes, gs.metafile.bitmap.raw_bytes
            )
        for name, vb in batched.vols.items():
            vs = scalar.vols[name]
            assert np.array_equal(
                vb.metafile.bitmap.raw_bytes, vs.metafile.bitmap.raw_bytes
            )
            assert np.array_equal(vb.l2v, vs.l2v)
            every = np.arange(vb.nblocks)
            assert np.array_equal(vb.physical_of(every), vs.physical_of(every))
