"""Unit tests for the WaflSim facade and builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common import GeometryError
from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.fs import CPBatch, PolicyKind, WaflSim
from repro.workloads import RandomOverwriteWorkload, SequentialWriteWorkload

from ..conftest import small_ssd_sim


class TestBuilders:
    def test_build_raid_tier(self, ssd_sim):
        assert ssd_sim.store.nblocks == 3 * 32768
        assert set(ssd_sim.vols) == {"volA", "volB"}
        assert ssd_sim.utilization == 0.0

    def test_build_object_tier(self):
        sim = WaflSim.build(
            AggregateSpec(
                tiers=(TierSpec(label="s3", media="object", raid="none",
                                nblocks=32768 * 4),),
                volumes=(VolumeDecl("v", logical_blocks=32768),),
            ),
            seed=0,
        )
        assert sim.store.nblocks == 32768 * 4
        wl = SequentialWriteWorkload(sim, ops_per_cp=1024, wrap=False)
        sim.run(wl, 2)
        assert sim.utilization > 0

    def test_overcommit_rejected(self):
        with pytest.raises(GeometryError):
            WaflSim.build(
                AggregateSpec(
                    tiers=(TierSpec(label="ssd", media="ssd", ndata=3,
                                    blocks_per_disk=8192,
                                    stripes_per_aa=1024),),
                    volumes=(VolumeDecl("v", logical_blocks=3 * 8192 + 1),),
                ),
            )

    def test_mixed_policies(self):
        sim = small_ssd_sim(aggregate_policy=PolicyKind.CACHE,
                            vol_policy=PolicyKind.RANDOM)
        assert sim.store.groups[0].cache is not None
        assert sim.vols["volA"].cache is None


class TestRun:
    def test_run_n_cps(self, ssd_sim):
        wl = RandomOverwriteWorkload(ssd_sim, ops_per_cp=256, seed=0)
        out = ssd_sim.run(wl, 5)
        assert len(out) == 5
        assert len(ssd_sim.metrics.cps) == 5

    def test_verify_consistency_clean(self, ssd_sim):
        wl = RandomOverwriteWorkload(ssd_sim, ops_per_cp=256, seed=0)
        ssd_sim.run(wl, 3)
        ssd_sim.verify_consistency()

    def test_vol_accessor(self, ssd_sim):
        assert ssd_sim.vol("volA").name == "volA"
        with pytest.raises(KeyError):
            ssd_sim.vol("nope")

    def test_utilization_tracks_writes(self, ssd_sim):
        wl = SequentialWriteWorkload(ssd_sim, ops_per_cp=1024, wrap=False)
        ssd_sim.run(wl, 3)
        used = ssd_sim.store.nblocks - ssd_sim.store.free_count
        assert used == 3 * 1024
