"""Tier-migration tests: block conservation (copied == freed == used),
recommendation/rebalance plumbing, and the refusal cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.auditor import audit_sim
from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.common.errors import OutOfSpaceError, TieringError
from repro.fs import CPBatch, WaflSim
from repro.tiering import (
    migrate_volume_tier,
    rebalance_tiers,
    recommend_tiers,
    volume_tier_blocks,
)
from repro.workloads import fill_volumes


def tiered_sim(seed: int = 9, *, flash_blocks_per_disk: int = 4096) -> WaflSim:
    spec = AggregateSpec(
        tiers=(
            TierSpec(label="flash", media="ssd", raid="mirror", ndata=4,
                     blocks_per_disk=flash_blocks_per_disk),
            TierSpec(label="disk", media="hdd", raid="raid4", ndata=6,
                     blocks_per_disk=4096),
        ),
        volumes=(
            VolumeDecl("hot", logical_blocks=4096, workload="oltp"),
            VolumeDecl("cold", logical_blocks=8192, workload="sequential"),
        ),
    )
    return WaflSim.build(spec, seed=seed)


class TestConservation:
    def test_migration_conserves_blocks(self):
        sim = tiered_sim()
        fill_volumes(sim, ops_per_cp=4096, seed=2)
        vol = sim.vols["hot"]
        mapped = int((vol.l2v >= 0).sum())
        assert volume_tier_blocks(sim, "hot")["flash"] == mapped

        report = migrate_volume_tier(sim, "hot", "disk")
        assert report.copied == report.freed == report.used == mapped
        residency = volume_tier_blocks(sim, "hot")
        assert residency["disk"] == mapped
        assert residency.get("flash", 0) == 0
        sim.verify_consistency()

    def test_migration_to_current_tier_is_still_conserving(self):
        sim = tiered_sim()
        fill_volumes(sim, ops_per_cp=4096, seed=2)
        report = migrate_volume_tier(sim, "hot", "flash")
        assert report.copied == report.freed == report.used

    def test_snapshotted_volume_migrates(self):
        sim = tiered_sim()
        fill_volumes(sim, ops_per_cp=4096, seed=2)
        sim.create_snapshot("hot", "pin")
        # Overwritten after the snapshot: it alone holds the old blocks.
        sim.engine.run_cp(CPBatch(writes={"hot": np.arange(1000)}, ops=1000))
        vol = sim.vols["hot"]
        l2v, held = vol.l2v.copy(), vol.snapshots["pin"].copy()

        report = migrate_volume_tier(sim, "hot", "disk")
        assert report.copied == report.freed == report.used == 4096 + 1000
        assert volume_tier_blocks(sim, "hot") == {"flash": 0, "disk": 5096}
        assert np.all(vol.physical_of(held) >= sim.store.bases[1])
        np.testing.assert_array_equal(vol.l2v, l2v)
        np.testing.assert_array_equal(vol.snapshots["pin"], held)
        assert audit_sim(sim).ok
        sim.delete_snapshot("hot", "pin")
        assert sim.engine.run_cp(CPBatch()).freed_by_tier == {"flash": 0, "disk": 1000}

    def test_migration_under_a_free_budget_conserves_blocks(self):
        # A flash tier wide enough that the volume's blocks span two
        # bitmap metafile blocks: a one-block budget applies half of the
        # migration CP's frees and leaves the rest pending.
        sim = tiered_sim(flash_blocks_per_disk=16_384)
        fill_volumes(sim, ops_per_cp=4096, seed=2)
        sim.set_free_budget(1)
        report = migrate_volume_tier(sim, "hot", "disk")
        assert report.copied == report.freed == report.used == 4096
        assert volume_tier_blocks(sim, "hot") == {"flash": 0, "disk": 4096}
        assert audit_sim(sim).ok
        sim.set_free_budget(None)
        assert sim.engine.run_cp(CPBatch()).freed_by_tier["flash"] > 0

    def test_empty_volume_migrates_trivially(self):
        sim = tiered_sim()
        report = migrate_volume_tier(sim, "hot", "disk")
        assert report.copied == report.freed == report.used == 0


class TestRefusals:
    def test_unknown_target_tier(self):
        sim = tiered_sim()
        with pytest.raises(TieringError, match="tape"):
            migrate_volume_tier(sim, "hot", "tape")

    def test_unknown_volume(self):
        sim = tiered_sim()
        with pytest.raises(TieringError, match="nope"):
            migrate_volume_tier(sim, "nope", "disk")

    def test_refused_relocation_leaves_the_volume_pinned_where_it_was(self):
        # The flash tier cannot hold the cold volume: the engine refuses
        # the relocation CP before anything moves, so the pin stays too.
        sim = tiered_sim(flash_blocks_per_disk=1024)
        fill_volumes(sim, ops_per_cp=4096, seed=2)
        before = volume_tier_blocks(sim, "cold")
        with pytest.raises(OutOfSpaceError):
            migrate_volume_tier(sim, "cold", "flash")
        assert sim.store.tier_of("cold") == "disk"
        assert volume_tier_blocks(sim, "cold") == before

    def test_untierd_sim_is_refused(self):
        flat = WaflSim.build(
            AggregateSpec(
                tiers=(TierSpec(label="ssd", media="ssd", ndata=3,
                                blocks_per_disk=8192, stripes_per_aa=1024),),
                volumes=(VolumeDecl("v", logical_blocks=8192),),
            ),
            seed=0,
        )
        with pytest.raises(TieringError):
            migrate_volume_tier(flat, "v", "ssd")


class TestRebalance:
    def test_rebalance_corrects_a_misplacement(self):
        sim = tiered_sim()
        fill_volumes(sim, ops_per_cp=4096, seed=2)
        # Misplace the OLTP volume on the capacity tier.
        migrate_volume_tier(sim, "hot", "disk")
        assert recommend_tiers(sim)["hot"] == "flash"
        reports = rebalance_tiers(sim)
        moved = {r.volume: r.target for r in reports}
        assert moved.get("hot") == "flash"
        assert volume_tier_blocks(sim, "hot").get("disk", 0) == 0
        sim.verify_consistency()

    def test_rebalance_is_idempotent(self):
        sim = tiered_sim()
        fill_volumes(sim, ops_per_cp=4096, seed=2)
        rebalance_tiers(sim)
        assert rebalance_tiers(sim) == []
