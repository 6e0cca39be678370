"""Degraded-RAID behaviour: reconstruction, budgets, accounting."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.common import DegradedError, MediaError, TransientIOError
from repro.faults import FaultInjector, FaultKind, attach_everywhere
from repro.fs import CPBatch
from repro.raid.geometry import RAIDGeometry
from repro.raid.parity import analyze_raid_writes
from repro.workloads import RandomOverwriteWorkload, fill_volumes

from ..conftest import small_ssd_sim


@pytest.fixture
def sim():
    s = small_ssd_sim()
    fill_volumes(s, ops_per_cp=8192)
    s.run(RandomOverwriteWorkload(s, ops_per_cp=1024, seed=3), 3)
    return s


class TestDegradedWrites:
    def test_degraded_analysis_charges_reconstruction(self):
        geom = RAIDGeometry(ndata=3, nparity=1, blocks_per_disk=1024)
        # 10 full stripes: the same 10 DBNs on every data disk.
        vbns = np.concatenate(
            [d * 1024 + np.arange(10, dtype=np.int64) for d in range(3)]
        )
        healthy = analyze_raid_writes(geom, vbns)
        degraded = analyze_raid_writes(geom, vbns, failed_disks=1)
        assert healthy.full_stripes == 10
        assert healthy.reconstruction_reads == 0
        assert healthy.degraded_stripes == 0
        # Full stripes: 3 of 3 data blocks written, 3 survivors
        # (4 disks - 1 failed) => 0 extra reads per stripe.
        assert degraded.degraded_stripes == 10
        assert degraded.reconstruction_reads == 0
        partial = analyze_raid_writes(
            geom, np.arange(10, dtype=np.int64), failed_disks=1
        )
        # 1 of 3 data blocks per stripe => read the other 2 survivors.
        assert partial.reconstruction_reads == 2 * partial.stripes_written
        assert partial.parity_blocks_read == partial.reconstruction_reads

    def test_cps_run_degraded_and_charge_stats(self, sim):
        sim.store.fail_disk(0, 1)
        g = sim.store.groups[0]
        assert g.failed_disks == 1 and g.within_parity_budget
        stats = sim.run(RandomOverwriteWorkload(sim, ops_per_cp=1024, seed=5), 3)
        assert sum(s.degraded_stripes for s in stats) > 0
        sim.verify_consistency()

    def test_degraded_client_reads_reconstruct(self, sim):
        sim.store.fail_disk(0, 1)
        g = sim.store.groups[0]
        stats = sim.engine.run_cp(CPBatch(reads=4000))
        assert g.reconstruction_reads > 0
        assert g.degraded_reads > 0
        assert stats.reconstruction_reads == g.reconstruction_reads

    def test_replace_disk_rebuilds(self, sim):
        sim.store.fail_disk(0, 1)
        g = sim.store.groups[0]
        busy = g.replace_disk(1)
        assert busy > 0
        assert g.failed_disks == 0
        assert g.blocks_reconstructed == g.geometry.blocks_per_disk
        sim.run(RandomOverwriteWorkload(sim, ops_per_cp=1024, seed=6), 2)
        sim.verify_consistency()

    def test_replacing_a_healthy_disk_is_refused_before_any_read(self, sim):
        """It used to revive() a device that had never failed, charge a
        full-disk read on every member plus the rebuild write, and count
        a reconstruction that never happened."""
        sim.store.fail_disk(0, 1)
        g = sim.store.groups[0]
        clocks = [dataclasses.replace(d.stats) for d in g.devices]
        for healthy in (dict(index=0), dict(index=2), dict(index=0, parity=True)):
            with pytest.raises(DegradedError, match="has not failed"):
                g.replace_disk(**healthy)
        assert g.blocks_reconstructed == 0
        assert g.reconstruction_reads == 0
        assert clocks == [d.stats for d in g.devices]
        assert g.failed_disks == 1

    def test_beyond_parity_budget_raises(self, sim):
        sim.store.fail_disk(0, 0)
        sim.store.fail_disk(0, 1)
        g = sim.store.groups[0]
        assert not g.within_parity_budget
        with pytest.raises(MediaError):
            g.read_metafile()
        with pytest.raises(DegradedError):
            g.replace_disk(0)


class TestFaultyMetafileReads:
    def test_transient_then_success(self, sim):
        inj = FaultInjector(seed=1)
        attach_everywhere(sim, inj)
        g = sim.store.groups[0]
        inj.arm(g.where, FaultKind.TRANSIENT_READ)
        with pytest.raises(TransientIOError):
            g.read_metafile()
        assert g.read_metafile() == g.metafile.metafile_block_count

    def test_latent_sector_errors_reconstructed_within_budget(self, sim):
        inj = FaultInjector(seed=1)
        attach_everywhere(sim, inj)
        g = sim.store.groups[0]
        inj.arm(g.where, FaultKind.LATENT_SECTOR_ERROR, count=4)
        before = g.reconstruction_reads
        g.read_metafile()
        assert g.reconstruction_reads > before

    def test_unreconstructable_is_media_error(self, sim):
        inj = FaultInjector(seed=1)
        attach_everywhere(sim, inj)
        g = sim.store.groups[0]
        inj.arm(g.where, FaultKind.LATENT_SECTOR_ERROR)
        inj.arm(g.where, FaultKind.UNRECONSTRUCTABLE)
        with pytest.raises(MediaError):
            g.read_metafile()

    def test_vol_unreconstructable_is_media_error(self, sim):
        inj = FaultInjector(seed=1)
        attach_everywhere(sim, inj)
        vol = sim.vol("volA")
        inj.arm(vol.where, FaultKind.UNRECONSTRUCTABLE)
        with pytest.raises(MediaError):
            vol.read_metafile()
