"""Unit tests for the consistency-point engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.auditor import audit_sim
from repro.common.errors import AllocationError, OutOfSpaceError, TieringError
from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.crash import capture_image
from repro.fs import CPBatch, WaflSim, iron
from repro.workloads import fill_volumes

from ..conftest import small_ssd_sim, two_tier_sim


def batch(sim, n, seed=0, reads=0):
    rng = np.random.default_rng(seed)
    name = next(iter(sim.vols))
    size = sim.vols[name].spec.logical_blocks
    return CPBatch(
        writes={name: rng.integers(0, size, size=n)}, ops=n, reads=reads
    )


class TestRunCP:
    def test_basic_cp(self, ssd_sim):
        stats = ssd_sim.engine.run_cp(batch(ssd_sim, 500))
        assert stats.ops == 500
        assert stats.physical_blocks > 0
        assert stats.physical_blocks == stats.virtual_blocks
        assert stats.cpu_us > 0
        assert stats.device_busy_us > 0

    def test_duplicate_writes_coalesce(self, ssd_sim):
        name = next(iter(ssd_sim.vols))
        ids = np.array([7, 7, 7, 8])
        stats = ssd_sim.engine.run_cp(CPBatch(writes={name: ids}, ops=4))
        assert stats.physical_blocks == 2

    def test_overwrites_free_previous(self, ssd_sim):
        name = next(iter(ssd_sim.vols))
        ids = np.arange(100)
        ssd_sim.engine.run_cp(CPBatch(writes={name: ids}, ops=100))
        s2 = ssd_sim.engine.run_cp(CPBatch(writes={name: ids}, ops=100))
        # Old virtual + physical pairs freed at the second CP boundary.
        assert s2.blocks_freed == 200

    def test_deletes_free_both_spaces(self, ssd_sim):
        name = next(iter(ssd_sim.vols))
        ids = np.arange(50)
        ssd_sim.engine.run_cp(CPBatch(writes={name: ids}, ops=50))
        before = ssd_sim.store.free_count
        s = ssd_sim.engine.run_cp(CPBatch(deletes={name: ids}, ops=50))
        assert s.blocks_freed == 100  # 50 virtual + 50 physical
        assert ssd_sim.store.free_count == before + 50

    def test_reads_charge_devices(self, ssd_sim):
        s0 = ssd_sim.engine.run_cp(batch(ssd_sim, 10))
        s1 = ssd_sim.engine.run_cp(batch(ssd_sim, 10, reads=5000))
        assert s1.device_busy_us > s0.device_busy_us

    def test_out_of_space(self):
        phys = 3 * 8192
        sim = WaflSim.build(
            AggregateSpec(
                tiers=(TierSpec(label="ssd", media="ssd", ndata=3,
                                blocks_per_disk=8192, stripes_per_aa=1024),),
                # Virtual space far exceeds physical so the aggregate
                # exhausts first.
                volumes=(VolumeDecl("v", logical_blocks=phys - 100,
                                    virtual_blocks=8 * phys - (8 * phys) % 32768),),
            ),
            seed=0,
        )
        with pytest.raises(OutOfSpaceError):
            for i in range(50):
                ids = np.arange(sim.vols["v"].spec.logical_blocks)
                sim.engine.run_cp(CPBatch(writes={"v": ids}, ops=10))
                # Defeat physical freeing so space leaks.
                for g in sim.store.groups:
                    g.delayed_frees._per_block.clear()
                    g.delayed_frees._pending.clear()

    def test_metrics_accumulate(self, ssd_sim):
        ssd_sim.engine.run_cp(batch(ssd_sim, 100))
        ssd_sim.engine.run_cp(batch(ssd_sim, 100))
        assert ssd_sim.metrics.total_ops == 200
        assert len(ssd_sim.metrics.cps) == 2
        assert ssd_sim.metrics.cps[1].cp_index == 1

    def test_cache_maintenance_tracked(self, ssd_sim):
        ssd_sim.engine.run_cp(batch(ssd_sim, 200))
        assert ssd_sim.engine.cache_maintenance_us > 0

    def test_empty_batch(self, ssd_sim):
        stats = ssd_sim.engine.run_cp(CPBatch(ops=0))
        assert stats.physical_blocks == 0


@pytest.fixture(scope="module")
def filled():
    sims = {"flat": small_ssd_sim(), "tiered": two_tier_sim()}
    for sim in sims.values():
        fill_volumes(sim)
    return sims


#: why -> (subject, the volume's virtual VBNs to relocate, volume, tier, refusal).
RELOCATION_REFUSALS = {
    "unknown volume": ("flat", lambda vol: [0], "nope", "ssd", AllocationError),
    "negative virtual VBN": ("flat", lambda vol: [-1], "volA", "ssd", AllocationError),
    "virtual VBN past the end": (
        "flat", lambda vol: [vol.nblocks], "volA", "ssd", AllocationError),
    "unmapped virtual VBN": (
        "flat", lambda vol: np.flatnonzero(~vol.mapped())[:1], "volA", "ssd", AllocationError),
    # A relocation always names its tier, whatever the number of tiers.
    "no tier named": ("tiered", lambda vol: [0], "big", None, TieringError),
    "no tier named, one tier": ("flat", lambda vol: [0], "volA", None, TieringError),
    "unknown tier": ("tiered", lambda vol: [0], "big", "tape", TieringError),
    "unknown tier, one tier": ("flat", lambda vol: [0], "volA", "tape", TieringError),
    "too little space": (
        "tiered", lambda vol: np.flatnonzero(vol.mapped()), "big", "fast", OutOfSpaceError),
}


class TestRelocation:
    @pytest.mark.parametrize("why", sorted(RELOCATION_REFUSALS))
    def test_refused_before_anything_moves(self, filled, why):
        subject, virtual, name, tier, error = RELOCATION_REFUSALS[why]
        sim = filled[subject]
        relocate = {name: virtual(sim.vols.get(name))}
        image = capture_image(sim).digest()
        with pytest.raises(error):
            sim.engine.run_cp(CPBatch(relocate=relocate, relocate_to=tier))
        assert capture_image(sim).digest() == image

    def test_a_write_in_the_same_cp_supersedes_the_copy(self):
        sim = small_ssd_sim()
        fill_volumes(sim)
        vol, used = sim.vols["volA"], sim.store.free_count
        stats = sim.engine.run_cp(
            CPBatch(relocate={"volA": vol.l2v[:10]}, relocate_to="ssd",
                    writes={"volA": np.arange(10)}, ops=10)
        )
        # 10 copies and 10 writes; the sources, the copies and the
        # superseded virtual VBNs all freed at the same boundary.
        assert (stats.physical_blocks, stats.blocks_freed) == (20, 30)
        assert sim.store.free_count == used
        assert audit_sim(sim).ok


def admission_sim(*vols: VolumeDecl) -> WaflSim:
    """A one-tier SSD aggregate of 4 data disks x 4,096 blocks, its
    volumes filled."""
    sim = WaflSim.build(AggregateSpec(
        tiers=(TierSpec(label="ssd", media="ssd", ndata=4, blocks_per_disk=4096,
                        stripes_per_aa=512),),
        volumes=vols or (VolumeDecl("a", logical_blocks=4000),
                         VolumeDecl("b", logical_blocks=4000)),
    ), seed=0)
    fill_volumes(sim)
    return sim


#: why -> (batch, refusal); ``a`` and ``b`` hold 4,000 logical blocks each.
ADMISSION_REFUSALS = {
    "write in an unknown volume": (
        CPBatch(writes={"a": np.arange(10), "zz": np.arange(10)}), AllocationError),
    "write past the end": (CPBatch(writes={"a": np.arange(10), "b": [3999, 4000]}),
                           AllocationError),
    "negative write": (CPBatch(writes={"b": [-1]}), AllocationError),
    "delete in an unknown volume": (
        CPBatch(deletes={"a": np.arange(10), "zz": np.arange(10)}), AllocationError),
    "delete past the end": (CPBatch(deletes={"a": np.arange(10), "b": [4000]}),
                            AllocationError),
    "negative delete": (CPBatch(deletes={"b": [-1]}), AllocationError),
}


def assert_refused_whole(sim, batch, error):
    image = capture_image(sim).digest()
    with pytest.raises(error):
        sim.engine.run_cp(batch)
    assert capture_image(sim).digest() == image
    assert audit_sim(sim).ok
    assert iron.scan(sim).clean
    stats = sim.engine.run_cp(CPBatch())
    assert (stats.physical_blocks, stats.virtual_blocks, stats.device_busy_us) == (0, 0, 0)


class TestAdmission:
    @pytest.mark.parametrize("why", sorted(ADMISSION_REFUSALS))
    def test_refused_before_anything_moves(self, why):
        batch, error = ADMISSION_REFUSALS[why]
        assert_refused_whole(admission_sim(), batch, error)

    def test_physical_shortfall(self):
        sim = admission_sim(VolumeDecl("v", logical_blocks=16000))
        sim.create_snapshot("v", "pin")  # the overwrite frees nothing
        assert sim.store.free_count == 384
        assert_refused_whole(sim, CPBatch(writes={"v": np.arange(1000)}), OutOfSpaceError)

    def test_virtual_shortfall(self):
        sim = admission_sim(VolumeDecl("v", logical_blocks=4000, virtual_blocks=4096,
                                             blocks_per_aa=1024))
        # The overwritten virtual VBNs are freed only at the boundary.
        assert sim.vols["v"].free_count == 96
        assert_refused_whole(sim, CPBatch(writes={"v": np.arange(200)}), OutOfSpaceError)
