"""Unit tests for the whole-system invariant auditor: clean systems
audit clean, and each class of deliberate corruption is caught by the
check that owns it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import InvariantAuditor, arm_global, audit_sim, disarm_global
from repro.bench.harness import fill_group_statically
from repro.common.errors import AuditError, CacheError
from repro.core.delayed_frees import DelayedFreeLog
from repro.core.topaa import seed_heap_cache, serialize_heap_seed
from repro.faults import flip_bitmap_bits
from repro.fs.cp import CPEngine
from repro.fs.iron import scan
from repro.sim.stats import CPStats
from repro.workloads import RandomOverwriteWorkload, fill_volumes

from ..conftest import share_physical, small_ssd_sim


@pytest.fixture
def sim():
    s = small_ssd_sim()
    fill_volumes(s)
    s.run(RandomOverwriteWorkload(s, ops_per_cp=512, seed=3), 3)
    return s


def violations_by_check(report):
    return {v.check for v in report.violations}


class TestStructuralAudit:
    def test_clean_system_audits_clean(self, sim):
        report = audit_sim(sim)
        assert report.ok, report.format()
        assert report.checks_run > 0

    def test_broken_free_count_is_caught(self, sim):
        g = sim.store.groups[0]
        g.metafile.bitmap._allocated += 1
        report = audit_sim(sim)
        assert "bitmap-popcount" in violations_by_check(report)
        assert any(v.where == "group:0" for v in report.violations)

    def test_corrupted_hbps_bin_count_is_caught(self, sim):
        vol = sim.vols["volA"]
        vol.cache.hbps._counts[0] += 1
        report = audit_sim(sim)
        assert not report.ok
        assert any(v.where == "vol:volA" for v in report.violations)

    def test_broken_heap_order_is_caught(self, sim):
        g = sim.store.groups[0]
        block = int(g.cache._block_max.argmax())
        g.cache._block_max[block] -= 1 << g.cache._shift  # the best block's maximum understated
        report = audit_sim(sim)
        assert "cache-structure" in violations_by_check(report)

    def test_key_that_disagrees_with_its_score_is_caught(self, sim):
        g = sim.store.groups[0]
        aa = g.cache.select()
        g.cache.invalidate(aa, g.cache.score_of(aa))
        g.cache._key.put(aa, g.cache._key.take(aa) + (1 << g.cache._shift))  # score + 1
        report = audit_sim(sim)
        assert "cache-structure" in violations_by_check(report)

    def test_diverged_keeper_is_caught(self, sim):
        g = sim.store.groups[0]
        g.keeper._scores[0] += 1
        report = audit_sim(sim)
        assert not report.ok

    def test_snapshot_pin_corruption_is_caught(self, sim):
        # The pin mask exists only while a snapshot is held: pin a free
        # VBN in it then.
        vol = sim.vols["volA"]
        vol.create_snapshot("s")
        assert audit_sim(sim).ok
        free = vol.metafile.bitmap.free_in_range(0, vol.nblocks, limit=1)
        vol.pin_mask[free[0]] = True
        report = audit_sim(sim)
        assert "flexvol-accounting" in violations_by_check(report)

    def test_v2p_entry_past_the_store_is_caught(self, sim):
        vol = sim.vols["volA"]
        live_v = vol.l2v[vol.l2v >= 0][:1]
        vol.remap(live_v, np.array([sim.store.nblocks + 5]))
        report = audit_sim(sim)
        assert "flexvol-maps" in violations_by_check(report)
        assert any(v.where == "vol:volA" for v in report.violations)

    def test_stale_v2p_entry_is_caught(self, sim):
        # A populated entry for a virtual VBN nothing maps or pins names
        # a live physical block: the volume's bitmap agrees with it, so
        # on the volume only the map check can see it (the group sees a
        # second owner).
        vol = sim.vols["volA"]
        hole = np.flatnonzero(~vol.mapped())[:1]
        vol.remap(hole, vol.physical_of(vol.l2v[vol.l2v >= 0][:1]))
        report = audit_sim(sim)
        assert [v.message for v in report.violations if v.where == "vol:volA"] == [
            "v2p has 1 stale entries and 0 referenced holes"]

    def test_pinned_hole_in_v2p_is_caught(self, sim):
        # A hole under a snapshot pin, not only under the active map.
        vol = sim.vols["volA"]
        vol.create_snapshot("s")
        sim.run(RandomOverwriteWorkload(sim, ops_per_cp=512, seed=4), 1)
        active = np.zeros(vol.nblocks, dtype=bool)
        active[vol.l2v[vol.l2v >= 0]] = True
        pinned_only = np.flatnonzero(vol.pin_mask & ~active)
        assert pinned_only.size and audit_sim(sim).ok
        v2p = vol.physical_of(np.arange(vol.nblocks))
        v2p[pinned_only[0]] = -1
        vol.restore_maps(vol.l2v.copy(), v2p, vol.snapshots.items())
        report = audit_sim(sim)
        assert [v.message for v in report.violations if v.where == "vol:volA"] == [
            "v2p has 0 stale entries and 1 referenced holes"]

    @pytest.mark.parametrize("owner, sharer", [("volA", "volA"), ("volA", "volB")])
    def test_physical_block_with_two_owners_is_caught(self, sim, owner, sharer):
        share_physical(sim, owner, sharer)
        assert [str(v) for v in audit_sim(sim).violations] == [
            "[group:0] shared-physical: 5 extra owners: container maps name a physical VBN twice"]

    def test_raise_if_failed(self, sim):
        g = sim.store.groups[0]
        g.metafile.bitmap._allocated += 1
        with pytest.raises(AuditError, match="bitmap-popcount"):
            audit_sim(sim).raise_if_failed()

    def test_seeded_heap_cache_is_exempt_from_score_comparison(self, sim):
        # A TopAA-seeded cache carries export-time scores that lag the
        # keeper until the background rebuild; the audit must not flag
        # that as divergence.
        g = sim.store.groups[0]
        scores = g.topology.scores_from_bitmap(g.metafile.bitmap)
        stale = scores.copy()
        stale[:8] += 1  # deliberately stale seed
        cache = seed_heap_cache(
            g.topology.num_aas, serialize_heap_seed(stale), aa_blocks=g.topology.aa_blocks + 1
        )
        assert cache.seeded
        g.adopt_cache(cache)
        report = audit_sim(sim)
        assert "heap-vs-scores" not in violations_by_check(report)


def _drop_l2v_entry(sim):
    vol = sim.vols["volA"]
    vol.l2v[np.flatnonzero(vol.l2v >= 0)[0]] = -1


def _pin_free_vbn(sim):
    vol = sim.vols["volA"]
    vol.create_snapshot("s")
    vol.pin_mask[vol.metafile.bitmap.free_in_range(0, vol.nblocks, limit=1)] = True


def _diverge_keeper(sim):
    sim.store.groups[0].keeper._scores[0] += 1


CORRUPTIONS = {
    "flipped volume bits": lambda sim: flip_bitmap_bits(sim.vols["volA"].metafile.bitmap, 2, 0),
    "flipped group bits": lambda sim: flip_bitmap_bits(sim.store.groups[0].metafile.bitmap, 2, 0),
    "dropped l2v entry": _drop_l2v_entry,
    "pinned free VBN": _pin_free_vbn,
    "shared physical block": lambda sim: share_physical(sim, "volA", "volB"),
    "diverged keeper score": _diverge_keeper,
}


class TestAgreesWithIron:
    """The auditor and Iron read one reference pass, so a corruption is
    flagged in the same places by both — physical leaks aside, which
    are Iron's only."""

    @pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
    def test_same_where(self, sim, corrupt):
        corrupt(sim)
        audit, iron = audit_sim(sim), scan(sim)
        assert audit.iron == iron
        flagged = {f.where for f in iron.findings if f.kind != "leaked" or f.where.startswith("vol:")}
        assert flagged and {v.where for v in audit.violations} == flagged

    def test_physical_leaks_are_irons_only(self):
        sim = small_ssd_sim()
        fill_group_statically(sim.store.groups[0], 0.1, np.random.default_rng(0))
        audit = audit_sim(sim)
        assert audit.ok, audit.format()
        assert [(f.kind, f.where) for f in audit.iron.findings] == [("leaked", "group:0")]


class TestDelayedFreeInvariants:
    def test_pending_count_mismatch_raises(self):
        log = DelayedFreeLog(bits_per_block=64)
        log.add(np.array([1, 2, 65]))
        log._ensure_counts()  # counts are folded lazily; corrupt after
        log._pending[0] += 1
        with pytest.raises(CacheError, match="pending count"):
            log.check_invariants()

    def test_duplicate_vbn_raises(self):
        log = DelayedFreeLog(bits_per_block=64)
        log.add(np.array([5]))
        log.add(np.array([5]))
        with pytest.raises(CacheError, match="duplicate"):
            log.check_invariants()

    def test_pending_vbn_already_free_in_bitmap_raises(self, sim):
        vol = sim.vols["volA"]
        log = DelayedFreeLog(bits_per_block=64)
        free = vol.metafile.bitmap.free_in_range(0, vol.nblocks, limit=1)
        log.add(free)
        with pytest.raises(CacheError, match="already"):
            log.check_invariants(bitmap=vol.metafile.bitmap)


class TestCPTimeAuditor:
    def test_audited_run_is_clean(self, sim):
        auditor = InvariantAuditor()
        sim.engine.auditor = auditor
        sim.run(RandomOverwriteWorkload(sim, ops_per_cp=256, seed=8), 2)
        assert auditor.cps_audited == 2
        assert all(r.ok for r in auditor.reports)

    def test_engine_raises_on_broken_free_count(self, sim):
        sim.engine.auditor = InvariantAuditor()
        g = sim.store.groups[0]
        g.metafile.bitmap._allocated -= 1
        with pytest.raises(AuditError):
            sim.run(RandomOverwriteWorkload(sim, ops_per_cp=128, seed=9), 1)

    def test_conservation_violation_detected(self, sim):
        auditor = InvariantAuditor()
        auditor.before_cp(sim.engine)
        sim.vols["volA"].delayed_frees.total_logged += 5
        with pytest.raises(AuditError, match="frees-vs-stats"):
            auditor.after_cp(sim.engine, CPStats())

    def test_collect_mode_accumulates_instead_of_raising(self, sim):
        auditor = InvariantAuditor(raise_on_violation=False)
        auditor.before_cp(sim.engine)
        sim.vols["volA"].delayed_frees.total_logged += 5
        report = auditor.after_cp(sim.engine, CPStats())
        assert not report.ok
        assert auditor.reports == [report]

    def test_stats_sanity_folded_into_audit(self, sim):
        auditor = InvariantAuditor(raise_on_violation=False)
        auditor.before_cp(sim.engine)
        report = auditor.after_cp(sim.engine, CPStats(ops=-1))
        assert "stats-sanity" in violations_by_check(report)


class TestStatsSanity:
    def test_clean_record_has_no_violations(self):
        assert CPStats(ops=10, physical_blocks=20).accounting_violations() == []

    def test_negative_counter_flagged(self):
        out = CPStats(blocks_freed=-3).accounting_violations()
        assert any("blocks_freed" in m for m in out)

    def test_busy_exceeding_total_flagged(self):
        out = CPStats(device_busy_us=10.0, device_total_us=5.0).accounting_violations()
        assert any("bottleneck" in m for m in out)


class TestGlobalArming:
    def test_arm_and_disarm(self):
        # Save the session state: under `pytest --audit` the plugin has
        # already armed the factory for every test.
        saved = CPEngine.default_auditor_factory
        try:
            arm_global()
            armed = small_ssd_sim()
            assert isinstance(armed.engine.auditor, InvariantAuditor)
            disarm_global()
            assert CPEngine.default_auditor_factory is None
            unarmed = small_ssd_sim()
            assert unarmed.engine.auditor is None
        finally:
            CPEngine.default_auditor_factory = saved

    def test_explicit_auditor_wins_over_factory(self):
        saved = CPEngine.default_auditor_factory
        try:
            arm_global(raise_on_violation=False)
            mine = InvariantAuditor()
            s = small_ssd_sim()
            engine = CPEngine(s.store, s.vols, auditor=mine)
            assert engine.auditor is mine
        finally:
            CPEngine.default_auditor_factory = saved
