"""Unit tests for FlexVol volumes (virtual VBN space, COW maps)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common import RAID_AGNOSTIC_AA_BLOCKS, AllocationError
from repro.common.config import VolumeDecl
from repro.fs import CPBatch, FlexVol, PolicyKind
from repro.fs.iron import reference_pass

from ..conftest import assert_scores_match, small_ssd_sim


def make_vol(logical=1000, virtual=0, per_aa=512, policy=PolicyKind.CACHE):
    decl = VolumeDecl("v", logical_blocks=logical, virtual_blocks=virtual,
                      blocks_per_aa=per_aa)
    return FlexVol(decl, policy=policy, seed=0)


class TestSpec:
    def test_default_virtual_sizing(self):
        decl = VolumeDecl("v", logical_blocks=100_000)
        assert decl.resolved_blocks_per_aa == RAID_AGNOSTIC_AA_BLOCKS
        v = decl.resolved_virtual_blocks
        assert v >= 150_000
        assert v % decl.resolved_blocks_per_aa == 0
        vol = FlexVol(decl, seed=0)
        assert vol.spec is decl and vol.nblocks == v

    def test_explicit_virtual(self):
        decl = VolumeDecl("v", logical_blocks=100, virtual_blocks=32768)
        assert decl.resolved_virtual_blocks == 32768


class TestWritePath:
    def test_first_write_maps(self):
        vol = make_vol(virtual=2048)
        ids = np.array([1, 2, 3])
        new_v, old_v, old_p = vol.stage_writes(ids)
        assert new_v.size == 3 and old_v.size == 0
        vol.commit_writes(ids, new_v, np.array([100, 101, 102]), old_v)
        assert vol.l2v[1] == new_v[0]
        assert vol.physical_of(new_v[0]) == 100
        assert vol.used_blocks == 3

    def test_overwrite_frees_old_pair(self):
        vol = make_vol(virtual=2048)
        ids = np.array([5])
        nv, ov, op_ = vol.stage_writes(ids)
        vol.commit_writes(ids, nv, np.array([7]), ov)
        nv2, ov2, op2 = vol.stage_writes(ids)
        assert ov2.tolist() == [nv[0]]
        assert op2.tolist() == [7]
        vol.commit_writes(ids, nv2, np.array([9]), ov2)
        assert vol.delayed_frees.pending_count == 1
        assert vol.physical_of(nv[0]) == -1

    def test_remap_refuses_a_hole(self):
        vol = make_vol(virtual=2048)
        with pytest.raises(AllocationError, match="hole"):
            vol.remap(np.array([0, 1]), np.array([5, -1]))
        assert not vol.mapped().any()

    def test_virtual_exhaustion_raises(self):
        vol = make_vol(logical=600, virtual=512)
        with pytest.raises(AllocationError):
            vol.stage_writes(np.arange(600))

    def test_deletes_unmap(self):
        vol = make_vol(virtual=2048)
        ids = np.arange(10)
        nv, ov, _ = vol.stage_writes(ids)
        vol.commit_writes(ids, nv, np.arange(100, 110), ov)
        old_p = vol.stage_deletes(np.arange(5))
        assert sorted(old_p.tolist()) == list(range(100, 105))
        assert (vol.l2v[:5] == -1).all()
        assert vol.delayed_frees.pending_count == 5

    def test_delete_unmapped_is_noop(self):
        vol = make_vol(virtual=2048)
        assert vol.stage_deletes(np.array([3])).size == 0

    def test_physical_of_decodes_the_container_map(self):
        vol = make_vol(virtual=2048)
        ids = np.array([0, 1])
        nv, ov, _ = vol.stage_writes(ids)
        vol.commit_writes(ids, nv, np.array([55, 66]), ov)
        assert vol.physical_of(vol.l2v[:2]).tolist() == [55, 66]
        assert vol.l2v[2] == -1 and vol.physical_of(np.arange(2048)).tolist().count(-1) == 2046


class TestCPBoundary:
    def test_boundary_applies_frees_and_counts(self):
        vol = make_vol(virtual=2048)
        ids = np.arange(20)
        nv, ov, _ = vol.stage_writes(ids)
        vol.commit_writes(ids, nv, np.arange(100, 120), ov)
        rep = vol.cp_boundary()
        assert rep.metafile_blocks == 1
        assert rep.blocks_freed == 0
        nv2, ov2, _ = vol.stage_writes(ids)
        vol.commit_writes(ids, nv2, np.arange(200, 220), ov2)
        rep2 = vol.cp_boundary()
        assert rep2.blocks_freed == 20
        assert_scores_match(vol.keeper, vol.metafile.bitmap)

    def test_consistency_check_passes(self):
        sim = small_ssd_sim()
        sim.engine.run_cp(CPBatch(writes={"volA": np.arange(50)}, ops=50))
        (truth,) = reference_pass(sim, scope={"vol:volA"})
        assert truth.active == 50 and not any(truth.counts.values())
        sim.verify_consistency()

    def test_consistency_detects_corruption(self):
        sim = small_ssd_sim()
        sim.engine.run_cp(CPBatch(writes={"volA": np.arange(5)}, ops=5))
        vol = sim.vols["volA"]
        v2p = vol.physical_of(np.arange(vol.nblocks))
        v2p[vol.l2v[0]] = -1  # corrupt the container map
        vol.restore_maps(vol.l2v.copy(), v2p, ())
        (truth,) = reference_pass(sim, scope={"vol:volA"})
        assert {kind: n for kind, n in truth.counts.items() if n} == {"holes": 1}
        with pytest.raises(AllocationError, match="vol:volA.*'holes': 1"):
            sim.verify_consistency()

    def test_random_policy_vol(self):
        vol = make_vol(virtual=2048, policy=PolicyKind.RANDOM)
        ids = np.arange(30)
        nv, ov, _ = vol.stage_writes(ids)
        assert nv.size == 30
