"""Unit tests for workload generators and the aging harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads import (
    FileChurnWorkload,
    OLTPWorkload,
    RandomOverwriteWorkload,
    SequentialWriteWorkload,
    age_filesystem,
    churn,
    fill_volumes,
    reset_measurement_state,
)

from ..conftest import small_ssd_sim


class TestRandomOverwrite:
    def test_batch_shape(self):
        sim = small_ssd_sim()
        wl = RandomOverwriteWorkload(sim, ops_per_cp=100, blocks_per_op=2, seed=0)
        b = wl.next_batch()
        assert b.ops == 100
        total = sum(ids.size for ids in b.writes.values())
        assert total == pytest.approx(200, abs=4)

    def test_adjacent_blocks_per_op(self):
        sim = small_ssd_sim()
        wl = RandomOverwriteWorkload(sim, ops_per_cp=10, blocks_per_op=2, seed=0)
        b = wl.next_batch()
        for ids in b.writes.values():
            pairs = ids.reshape(-1, 2)
            assert np.all(pairs[:, 1] - pairs[:, 0] == 1)

    def test_working_set_restricts_range(self):
        sim = small_ssd_sim()
        wl = RandomOverwriteWorkload(
            sim, ops_per_cp=500, working_set_fraction=0.1, seed=0
        )
        b = wl.next_batch()
        for name, ids in b.writes.items():
            assert ids.max() <= sim.vols[name].spec.logical_blocks * 0.1 + 2

    def test_ids_within_bounds(self):
        sim = small_ssd_sim()
        wl = RandomOverwriteWorkload(sim, ops_per_cp=1000, seed=1)
        for _ in range(5):
            b = wl.next_batch()
            for name, ids in b.writes.items():
                assert ids.min() >= 0
                assert ids.max() < sim.vols[name].spec.logical_blocks

    def test_validation(self):
        sim = small_ssd_sim()
        with pytest.raises(ValueError):
            RandomOverwriteWorkload(sim, ops_per_cp=0)
        with pytest.raises(ValueError):
            RandomOverwriteWorkload(sim, working_set_fraction=0.0)


class TestSequential:
    def test_covers_in_order(self):
        sim = small_ssd_sim()
        wl = SequentialWriteWorkload(sim, ops_per_cp=64, wrap=False)
        b = wl.next_batch()
        for ids in b.writes.values():
            assert np.all(np.diff(ids) == 1)
            assert ids[0] == 0

    def test_exhausts_without_wrap(self):
        sim = small_ssd_sim()
        wl = SequentialWriteWorkload(sim, ops_per_cp=10**6, wrap=False)
        wl.next_batch()
        assert wl.exhausted
        assert not wl.next_batch().writes

    def test_wraps(self):
        sim = small_ssd_sim()
        wl = SequentialWriteWorkload(sim, ops_per_cp=10**6, wrap=True)
        wl.next_batch()
        b2 = wl.next_batch()
        assert b2.writes  # keeps producing


class TestOLTP:
    def test_read_write_split(self):
        sim = small_ssd_sim()
        wl = OLTPWorkload(sim, ops_per_cp=1000, read_fraction=0.6, seed=0)
        b = wl.next_batch()
        assert b.reads == 600
        assert b.ops == 1000
        assert sum(i.size for i in b.writes.values()) > 0

    def test_validation(self):
        sim = small_ssd_sim()
        with pytest.raises(ValueError):
            OLTPWorkload(sim, read_fraction=1.0)


class TestFileChurn:
    def test_creates_and_deletes(self):
        sim = small_ssd_sim()
        wl = FileChurnWorkload(sim, ops_per_cp=32, min_file_blocks=8,
                               max_file_blocks=64, seed=0)
        seen_delete = False
        for _ in range(10):
            b = wl.next_batch()
            sim.engine.run_cp(b)
            if b.deletes:
                seen_delete = True
        assert seen_delete
        sim.verify_consistency()

    def test_population_tracking(self):
        sim = small_ssd_sim()
        wl = FileChurnWorkload(sim, ops_per_cp=16, create_bias=1.0,
                               max_file_blocks=64, seed=0)
        wl.next_batch()
        assert wl.live_files("volA") + wl.live_files("volB") > 0

    def test_validation(self):
        sim = small_ssd_sim()
        with pytest.raises(ValueError):
            FileChurnWorkload(sim, min_file_blocks=10, max_file_blocks=5)


class TestAging:
    def test_fill_reaches_logical_ratio(self):
        sim = small_ssd_sim()
        fill_volumes(sim, ops_per_cp=8192)
        expect = sim.total_logical_blocks / sim.store.nblocks
        assert sim.utilization == pytest.approx(expect, rel=0.01)

    def test_churn_preserves_utilization(self):
        sim = small_ssd_sim()
        fill_volumes(sim, ops_per_cp=8192)
        u0 = sim.utilization
        churn(sim, 20000, ops_per_cp=2048)
        assert sim.utilization == pytest.approx(u0, abs=0.05)

    def test_age_filesystem_fragments(self):
        """After aging, per-AA free space is nonuniform — the property
        the AA cache exploits (section 4.1.1)."""
        sim = small_ssd_sim()
        rep = age_filesystem(sim, churn_factor=1.0, ops_per_cp=8192)
        assert rep["utilization"] > 0.3
        g = sim.store.groups[0]
        scores = g.topology.scores_from_bitmap(g.metafile.bitmap)
        frac = scores / g.topology.aa_blocks
        assert frac.std() > 0.01  # genuinely nonuniform

    def test_reset_measurement_state(self):
        sim = small_ssd_sim()
        age_filesystem(sim, churn_factor=0.2, ops_per_cp=8192)
        reset_measurement_state(sim)
        assert sim.metrics.cps == []
        assert sim.store.groups[0].allocator.selected_aa_scores == []
        for g in sim.store.groups:
            for d in g.devices:
                assert d.stats.host_blocks_written == 0
        # The system still runs correctly afterwards.
        wl = RandomOverwriteWorkload(sim, ops_per_cp=512, seed=2)
        sim.run(wl, 2)
        sim.verify_consistency()


class TestTeardownAudit:
    """The benchmark's end-of-run checks reach every allocation space —
    an object tier inside a tiered aggregate included (its member is in
    ``sim.spaces()`` but not in ``Aggregate.groups``)."""

    @pytest.fixture
    def tiered_sim(self):
        from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
        from repro.fs import WaflSim

        spec = AggregateSpec(
            tiers=(
                TierSpec(label="ssd", media="ssd", ndata=3, blocks_per_disk=8192,
                         stripes_per_aa=512),
                TierSpec(label="cloud", media="object", raid="none", nblocks=32768),
            ),
            volumes=(VolumeDecl("v", logical_blocks=4096),),
        )
        sim = WaflSim.build(spec, seed=5)
        assert [fs.where for fs in sim.spaces()] == ["group:0", "store:cloud", "vol:v"]
        return sim

    def test_popcount_audit_catches_a_corrupt_object_tier_counter(self, tiered_sim):
        # Through the name perfbench imports.
        from repro.bench.harness import popcount_audit
        from repro.common import BitmapError

        popcount_audit(tiered_sim)
        cloud = tiered_sim.spaces()[1]
        cloud.metafile.bitmap._allocated += 7
        with pytest.raises(BitmapError, match="store:cloud"):
            popcount_audit(tiered_sim)

    def test_set_bitmap_checks_reaches_every_space(self, tiered_sim):
        from repro.bench.harness import set_bitmap_checks

        assert all(fs.metafile.bitmap.check for fs in tiered_sim.spaces())
        set_bitmap_checks(tiered_sim, False)
        assert not any(fs.metafile.bitmap.check for fs in tiered_sim.spaces())
