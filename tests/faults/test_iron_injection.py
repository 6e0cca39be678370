"""Iron under injected corruption: exact detection, scoped repair,
graceful degradation (satellite of the fault-injection PR)."""

from __future__ import annotations

import pytest

from repro.faults import (
    FaultInjector,
    degraded_instances,
    escalate,
    exit_degraded,
    flip_bitmap_bits,
)
from repro.fs.iron import IronReport, reference_pass, repair, scan
from repro.workloads import RandomOverwriteWorkload, fill_volumes

from ..conftest import small_ssd_sim


@pytest.fixture
def sim():
    s = small_ssd_sim()
    fill_volumes(s, ops_per_cp=8192)
    s.run(RandomOverwriteWorkload(s, ops_per_cp=1024, seed=3), 5)
    return s


class TestDetection:
    def test_scan_finds_exact_flip_counts(self, sim):
        inj = FaultInjector(seed=9)
        vol = sim.vol("volA")
        g = sim.store.groups[0]
        flip_bitmap_bits(vol.metafile.bitmap, 20, inj.rng, direction="set")
        flip_bitmap_bits(g.metafile.bitmap, 12, inj.rng, direction="clear")
        report = scan(sim)
        # Set bits on the vol = allocated-but-unreferenced = leaked;
        # cleared bits on the group = referenced-but-free = corrupt.
        by_where = report.by_where()
        vol_kinds = {f.kind: f.count for f in by_where[vol.where]}
        grp_kinds = {f.kind: f.count for f in by_where[g.where]}
        assert vol_kinds["leaked"] == 20
        assert grp_kinds["corrupt"] == 12
        # Undamaged file systems report nothing.
        assert sim.vol("volB").where not in by_where

    def test_scoped_scan_ignores_out_of_scope_damage(self, sim):
        inj = FaultInjector(seed=9)
        flip_bitmap_bits(sim.vol("volA").metafile.bitmap, 8, inj.rng, "set")
        flip_bitmap_bits(sim.vol("volB").metafile.bitmap, 8, inj.rng, "set")
        truths = reference_pass(sim, scope={"vol:volA"})
        assert [t.space.where for t in truths] == ["vol:volA"]
        assert set(IronReport.of(truths).by_where()) == {"vol:volA"}


class TestScopedRepair:
    def test_repair_returns_only_fixed_findings(self, sim):
        inj = FaultInjector(seed=9)
        flip_bitmap_bits(sim.vol("volA").metafile.bitmap, 8, inj.rng, "set")
        flip_bitmap_bits(sim.vol("volB").metafile.bitmap, 6, inj.rng, "clear")
        fixed = repair(sim, scope={"vol:volA"})
        assert fixed.repaired
        assert set(fixed.by_where()) == {"vol:volA"}
        # volA is clean now; volB's damage is untouched.
        assert set(scan(sim).by_where()) == {"vol:volB"}
        # A follow-up full repair clears the rest.
        assert set(repair(sim).by_where()) == {"vol:volB"}
        assert scan(sim).clean

    def test_repair_then_cps_consistent(self, sim):
        inj = FaultInjector(seed=9)
        flip_bitmap_bits(sim.store.groups[0].metafile.bitmap, 16, inj.rng, "both")
        repair(sim)
        assert scan(sim).clean
        sim.run(RandomOverwriteWorkload(sim, ops_per_cp=1024, seed=4), 3)
        sim.verify_consistency()


class TestEscalation:
    def test_escalate_serves_degraded_then_recovers(self, sim):
        inj = FaultInjector(seed=9)
        vol = sim.vol("volA")
        g = sim.store.groups[0]
        flip_bitmap_bits(vol.metafile.bitmap, 24, inj.rng, "set")
        flip_bitmap_bits(g.metafile.bitmap, 24, inj.rng, "clear")
        report = scan(sim)
        wheres = sorted(report.by_where())
        fixed = escalate(sim, wheres)
        assert set(fixed.by_where()) == set(wheres)
        assert sorted(degraded_instances(sim)) == wheres
        assert vol.cache is None and g.cache is None
        # Allocation keeps succeeding on the bitmap walk: zero failed
        # allocations while the caches are offline.
        sim.run(RandomOverwriteWorkload(sim, ops_per_cp=1024, seed=5), 3)
        assert vol.source.selects > 0
        assert vol.source.bits_scanned > 0
        blocks = exit_degraded(sim)
        assert blocks > 0
        assert degraded_instances(sim) == []
        assert vol.cache is not None and g.cache is not None
        sim.run(RandomOverwriteWorkload(sim, ops_per_cp=1024, seed=6), 3)
        assert scan(sim).clean
        sim.verify_consistency()

    def test_escalate_empty_scope_is_noop(self, sim):
        report = escalate(sim, [])
        assert report.repaired and report.clean
        assert degraded_instances(sim) == []
