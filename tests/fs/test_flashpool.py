"""Tests for Flash Pool-style mixed-media tiering (extension;
paper section 2.1).

A Flash Pool is a two-tier aggregate built by :meth:`WaflSim.build`
like any other — one SSD tier and one HDD tier, a RAID store each —
carrying a :class:`repro.tiering.FlashPoolPolicy` that routes hot
overwrites to the SSD tier and first writes to the HDD tier.
"""

from __future__ import annotations

import numpy as np

from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.fs import CPBatch, MediaType, WaflSim
from repro.tiering import FlashPoolPolicy
from ..conftest import assert_scores_match


def build_flash_pool(seed=0):
    sim = WaflSim.build(
        AggregateSpec(
            tiers=(
                TierSpec(label="ssd", media="ssd", ndata=3, blocks_per_disk=16384,
                         stripes_per_aa=2048),
                TierSpec(label="hdd", media="hdd", n_groups=2, ndata=3,
                         blocks_per_disk=32768, stripes_per_aa=4096),
            ),
            volumes=(VolumeDecl("db", logical_blocks=60_000),),
        ),
        seed=seed,
    )
    sim.store.tier_policy = FlashPoolPolicy()
    return sim


class TestTiering:
    def test_policy_and_media(self):
        sim = build_flash_pool()
        assert isinstance(sim.store.tier_policy, FlashPoolPolicy)
        assert [g.media for g in sim.store.groups] == [
            MediaType.SSD, MediaType.HDD, MediaType.HDD]

    def test_all_ssd_carries_no_policy(self):
        sim = WaflSim.build(
            AggregateSpec(
                tiers=(TierSpec(label="ssd", media="ssd", ndata=3,
                                blocks_per_disk=16384, stripes_per_aa=2048),),
                volumes=(VolumeDecl("v", logical_blocks=10000),),
            ),
        )
        assert sim.store.tier_policy is None

    def test_first_writes_land_on_capacity_tier(self):
        sim = build_flash_pool()
        sim.engine.run_cp(CPBatch(writes={"db": np.arange(5000)}, ops=5000))
        ssd_used = sim.store.groups[0].metafile.bitmap.allocated_count
        hdd_used = sum(
            g.metafile.bitmap.allocated_count for g in sim.store.groups[1:]
        )
        assert ssd_used == 0
        assert hdd_used == 5000

    def test_overwrites_land_on_ssd_tier(self):
        sim = build_flash_pool()
        sim.engine.run_cp(CPBatch(writes={"db": np.arange(5000)}, ops=5000))
        sim.engine.run_cp(CPBatch(writes={"db": np.arange(2000)}, ops=2000))
        ssd_used = sim.store.groups[0].metafile.bitmap.allocated_count
        assert ssd_used == 2000

    def test_fallback_when_ssd_full(self):
        sim = build_flash_pool()
        ssd_capacity = sim.store.groups[0].topology.nblocks
        sim.engine.run_cp(CPBatch(writes={"db": np.arange(60_000)}, ops=60_000))
        # Overwrite more than the SSD tier can hold: spills to HDD.
        sim.engine.run_cp(CPBatch(writes={"db": np.arange(56_000)}, ops=56_000))
        ssd_used = sim.store.groups[0].metafile.bitmap.allocated_count
        assert ssd_used <= ssd_capacity
        assert sim.utilization > 0
        sim.verify_consistency()

    def test_mixed_batch_splits(self):
        sim = build_flash_pool()
        sim.engine.run_cp(CPBatch(writes={"db": np.arange(1000)}, ops=1000))
        # Half overwrites (hot), half fresh (cold).
        ids = np.arange(500, 1500)
        sim.engine.run_cp(CPBatch(writes={"db": ids}, ops=1000))
        ssd_used = sim.store.groups[0].metafile.bitmap.allocated_count
        assert ssd_used == 500
        sim.verify_consistency()

    def test_explicit_group_allocation(self):
        sim = build_flash_pool()
        fast = sim.store.allocate_in(["ssd"], 100)
        cap = sim.store.allocate_in(["hdd"], 100)
        assert fast.size == cap.size == 100
        ssd_span = sim.store.groups[0].topology.nblocks
        assert (fast < ssd_span).all()
        assert (cap >= ssd_span).all()

    def test_tiered_consistency_under_churn(self):
        sim = build_flash_pool(seed=3)
        rng = np.random.default_rng(4)
        for _ in range(10):
            ids = rng.integers(0, 60_000, size=2000)
            sim.engine.run_cp(CPBatch(writes={"db": ids}, ops=2000))
        sim.verify_consistency()
        for g in sim.store.groups:
            assert_scores_match(g.keeper, g.metafile.bitmap)
