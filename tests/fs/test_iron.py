"""Tests for the Iron checker/repair tool (extension; paper section 3.4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import audit_sim
from repro.faults import flip_bitmap_bits
from repro.fs import CPBatch, export_topaa, simulate_mount
from repro.fs.iron import repair, scan
from repro.workloads import RandomOverwriteWorkload, fill_volumes

from ..conftest import share_physical, small_ssd_sim

TWO_OWNERS = pytest.mark.parametrize("owner, sharer", [("volA", "volA"), ("volA", "volB")])


@pytest.fixture
def sim():
    s = small_ssd_sim()
    fill_volumes(s, ops_per_cp=8192)
    s.run(RandomOverwriteWorkload(s, ops_per_cp=1024, seed=3), 5)
    return s


class TestScan:
    def test_clean_system_scans_clean(self, sim):
        rep = scan(sim)
        assert rep.clean, [str(f) for f in rep.findings]

    def test_detects_virtual_leak(self, sim):
        vol = sim.vols["volA"]
        free = vol.topology.free_vbns(vol.metafile.bitmap, vol.topology.num_aas - 1,
                                      limit=7)
        vol.metafile.bitmap.allocate(free)  # orphan allocations
        rep = scan(sim)
        assert rep.count("leaked") == 7

    def test_detects_virtual_corruption(self, sim):
        vol = sim.vols["volA"]
        mapped = vol.l2v[vol.l2v >= 0][:5]
        vol.metafile.bitmap.free(mapped)  # referenced blocks marked free
        rep = scan(sim)
        assert rep.count("corrupt") == 5

    def test_detects_physical_corruption(self, sim):
        g = sim.store.groups[0]
        vol = sim.vols["volA"]
        p = vol.physical_of(vol.mapped())[:3] - g.offset
        g.metafile.bitmap.free(p)
        rep = scan(sim)
        assert rep.count("corrupt") == 3

    def test_detects_score_divergence(self, sim):
        g = sim.store.groups[0]
        g.keeper._scores[0] += 1  # simulated memory scribble
        rep = scan(sim)
        assert rep.count("score-divergence") >= 1

    @TWO_OWNERS
    def test_detects_physical_blocks_with_two_owners(self, sim, owner, sharer):
        share_physical(sim, owner, sharer)
        # Reported on the group holding them; the sharer's old blocks
        # are left allocated with no owner.
        assert [(f.kind, f.where, f.count) for f in scan(sim).findings] == [
            ("leaked", "group:0", 5), ("shared", "group:0", 5)]

    def test_snapshot_held_blocks_are_not_leaks(self, sim):
        sim.create_snapshot("volA", "s")
        size = sim.vols["volA"].spec.logical_blocks
        rng = np.random.default_rng(1)
        sim.engine.run_cp(
            CPBatch(writes={"volA": rng.integers(0, size, 500)}, ops=500)
        )
        rep = scan(sim)
        assert rep.clean, [str(f) for f in rep.findings]


class TestRepair:
    def test_repair_fixes_corruption(self, sim):
        vol = sim.vols["volA"]
        mapped = vol.l2v[vol.l2v >= 0][:5]
        vol.metafile.bitmap.free(mapped)
        g = sim.store.groups[0]
        g.keeper._scores[0] += 3
        rep = repair(sim)
        assert rep.repaired
        assert not rep.clean  # it found the damage...
        assert scan(sim).clean  # ...and fixed it
        sim.verify_consistency()

    def test_repair_reclaims_leaks(self, sim):
        g = sim.store.groups[0]
        free_before = g.metafile.free_count
        # Orphan 64 physical blocks (allocated, never referenced).
        orphans = g.topology.free_vbns(g.metafile.bitmap, 0, limit=64)
        g.metafile.bitmap.allocate(orphans)
        repair(sim)
        assert g.metafile.free_count == free_before
        assert scan(sim).clean

    def test_system_runs_after_repair(self, sim):
        vol = sim.vols["volA"]
        mapped = vol.l2v[vol.l2v >= 0][:10]
        vol.metafile.bitmap.free(mapped)
        repair(sim)
        sim.run(RandomOverwriteWorkload(sim, ops_per_cp=1024, seed=5), 5)
        sim.verify_consistency()
        assert scan(sim).clean

    @TWO_OWNERS
    def test_repair_does_not_claim_shared_blocks(self, sim, owner, sharer):
        # The maps are primary state: Iron reclaims the leak but cannot
        # pick an owner, so the sharing outlives the repair.
        share_physical(sim, owner, sharer)
        rep = repair(sim)
        assert [(f.kind, f.count) for f in rep.findings] == [("leaked", 5)]
        assert [(f.kind, f.where, f.count) for f in scan(sim).findings] == [
            ("shared", "group:0", 5)]

    def test_repair_on_clean_system_is_idempotent(self, sim):
        u_before = sim.utilization
        rep = repair(sim)
        assert rep.clean
        assert sim.utilization == pytest.approx(u_before)
        sim.verify_consistency()

    def test_repair_object_store(self):
        from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
        from repro.fs import WaflSim

        s = WaflSim.build(
            AggregateSpec(
                tiers=(TierSpec(label="s3", media="object", raid="none",
                                nblocks=32768 * 2),),
                volumes=(VolumeDecl("v", logical_blocks=20000),),
            ),
            seed=0,
        )
        fill_volumes(s, ops_per_cp=8192)
        vol = s.vols["v"]
        mapped = vol.l2v[vol.l2v >= 0][:5]
        s.store.members[0].metafile.bitmap.free(vol.physical_of(mapped))
        assert scan(s).count("corrupt") == 5
        repair(s)
        assert scan(s).clean
        s.run(RandomOverwriteWorkload(s, ops_per_cp=512, seed=1), 3)
        s.verify_consistency()


class TestUnreadKeeper:
    """A bit flipped in an AA the TopAA mount's unread keeper has not read
    yet: the pass reads the keeper's scores, which learns the flipped
    bitmap as the truth, so the flip shows as *corrupt* (maps vs bitmap)
    but not as score divergence.  An eager keeper shows both."""

    @pytest.mark.parametrize("topaa, diverged", [(True, 0), (False, 1)])
    def test_flip_in_an_unread_aa(self, sim, topaa, diverged):
        simulate_mount(sim, export_topaa(sim) if topaa else None)
        g = sim.store.groups[0]
        assert (g.keeper._unread is not None) == topaa
        assert flip_bitmap_bits(g.metafile.bitmap, 1, 0, direction="clear")["cleared"] == 1
        rep = scan(sim)
        assert rep.count("corrupt") == 1 and rep.count("score-divergence") == diverged
        assert g.keeper._unread is None
        checks = {v.check for v in audit_sim(sim).violations if v.where == "group:0"}
        assert checks == {"corrupt-physical"} | (
            {"keeper-vs-bitmap"} if diverged else set())
