"""Unit tests for the TopAA mount path (paper section 3.4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fs import (
    CPBatch,
    background_rebuild,
    export_topaa,
    simulate_mount,
)
from repro.workloads import RandomOverwriteWorkload, fill_volumes

from ..conftest import assert_scores_match, small_ssd_sim


@pytest.fixture
def aged_sim():
    sim = small_ssd_sim()
    fill_volumes(sim, ops_per_cp=8192)
    wl = RandomOverwriteWorkload(sim, ops_per_cp=2048, seed=3)
    sim.run(wl, 10)
    return sim


class TestExport:
    def test_image_shape(self, aged_sim):
        img = export_topaa(aged_sim)
        assert len(img.group_blocks) == 1
        assert set(img.vol_pages) == {"volA", "volB"}
        assert img.total_blocks == 1 + 2 * 2

    def test_blocks_are_4k_plus_checksum_header(self, aged_sim):
        from repro.core import TOPAA_HEADER_BYTES

        img = export_topaa(aged_sim)
        assert all(len(b) == 4096 + TOPAA_HEADER_BYTES for b in img.group_blocks)
        assert all(len(p) == 8192 + TOPAA_HEADER_BYTES for p in img.vol_pages.values())

    def test_group_page_past_the_next_index_is_refused(self):
        """Filing group 1 on an empty image must not make it group 0's
        page (same-size groups would pass the stale check)."""
        from repro.common import SerializationError
        from repro.fs import TopAAImage

        img = TopAAImage()
        for where in ("group:1", "group:-1"):
            with pytest.raises(SerializationError, match="next group is group:0"):
                img.put(where, b"one")
        assert img.page_for("group:0") is None
        img.put("group:0", b"old")
        img.put("group:0", b"new")
        img.put("group:1", b"one")
        assert img.group_blocks == [b"new", b"one"]


class TestMountPaths:
    def test_topaa_mount_reads_constant_blocks(self, aged_sim):
        img = export_topaa(aged_sim)
        rep = simulate_mount(aged_sim, img)
        assert rep.used_topaa
        assert rep.blocks_read == img.total_blocks
        assert rep.caches_built == 3

    def test_full_rebuild_reads_all_metafiles(self, aged_sim):
        expected = sum(
            g.metafile.metafile_block_count for g in aged_sim.store.groups
        ) + sum(v.metafile.metafile_block_count for v in aged_sim.vols.values())
        rep = simulate_mount(aged_sim, None)
        assert not rep.used_topaa
        assert rep.blocks_read == expected
        assert rep.modeled_read_us > 0

    def test_cps_run_after_topaa_mount(self, aged_sim):
        img = export_topaa(aged_sim)
        simulate_mount(aged_sim, img)
        wl = RandomOverwriteWorkload(aged_sim, ops_per_cp=1024, seed=5)
        aged_sim.run(wl, 5)
        aged_sim.verify_consistency()

    def test_cps_run_after_full_rebuild(self, aged_sim):
        simulate_mount(aged_sim, None)
        wl = RandomOverwriteWorkload(aged_sim, ops_per_cp=1024, seed=5)
        aged_sim.run(wl, 5)
        aged_sim.verify_consistency()

    def test_seeded_selection_quality(self, aged_sim):
        """AAs selected right after a TopAA mount are high quality —
        the whole point of persisting the best AAs."""
        img = export_topaa(aged_sim)
        simulate_mount(aged_sim, img)
        from repro.workloads import reset_measurement_state

        reset_measurement_state(aged_sim)
        wl = RandomOverwriteWorkload(aged_sim, ops_per_cp=1024, seed=5)
        aged_sim.run(wl, 3)
        sel = aged_sim.store.selected_aa_free_fractions()
        overall_free = 1 - aged_sim.utilization
        assert sel.size > 0
        assert sel.mean() >= overall_free * 0.9


class TestBackgroundRebuild:
    def test_rebuild_completes_seeded_state(self, aged_sim):
        img = export_topaa(aged_sim)
        simulate_mount(aged_sim, img)
        rep = background_rebuild(aged_sim)
        assert rep["hbps_caches_refreshed"] == 2
        for vol in aged_sim.vols.values():
            assert not vol.cache.seeded
        for g in aged_sim.store.groups:
            assert g.cache.fully_populated

    def test_rebuild_then_cps_consistent(self, aged_sim):
        img = export_topaa(aged_sim)
        simulate_mount(aged_sim, img)
        background_rebuild(aged_sim)
        wl = RandomOverwriteWorkload(aged_sim, ops_per_cp=1024, seed=6)
        aged_sim.run(wl, 5)
        aged_sim.verify_consistency()

    def test_rebuild_refills_a_stale_seed_naming_every_aa(self, aged_sim):
        """A mount from an older image (crash recovery mounts the next
        CP's shadow TopAA) seeds stale scores for every AA of the small
        group; the rebuild must replace them, not skip a full heap."""
        from repro.analysis import audit_sim

        img = export_topaa(aged_sim)
        aged_sim.run(RandomOverwriteWorkload(aged_sim, ops_per_cp=2048, seed=4), 5)
        simulate_mount(aged_sim, img)
        g = aged_sim.store.groups[0]
        assert g.cache.fully_populated and g.cache_seeded
        assert not np.array_equal(g.cache.scores_view, g.keeper.scores)
        background_rebuild(aged_sim)
        assert not g.cache_seeded
        assert np.array_equal(g.cache.scores_view, g.keeper.scores)
        g.cache.check_invariants()
        audit_sim(aged_sim).raise_if_failed()

    def test_rebuild_noop_after_full_mount(self, aged_sim):
        simulate_mount(aged_sim, None)
        rep = background_rebuild(aged_sim)
        assert rep == {"heap_aas_populated": 0, "hbps_caches_refreshed": 0}


def _every_cache(sim):
    return {fs.where: fs.cache for fs in sim.spaces()}


def _assert_healthy(sim):
    from repro.analysis import audit_sim
    from repro.fs import iron

    audit_sim(sim).raise_if_failed()
    assert iron.scan(sim).clean


class TestTieredMount:
    """A multi-tier aggregate is mounted space by space like any other
    (regression: every physical instance used to be skipped)."""

    @pytest.fixture
    def tiered_sim(self):
        from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
        from repro.fs import WaflSim

        spec = AggregateSpec(
            tiers=(
                TierSpec(label="flash", media="ssd", raid="mirror", ndata=2,
                         blocks_per_disk=8192, stripes_per_aa=1024),
                TierSpec(label="disk", media="hdd", raid="raid4", ndata=3,
                         blocks_per_disk=8192, stripes_per_aa=1024),
                TierSpec(label="cloud", media="object", raid="none",
                         nblocks=32768, blocks_per_aa=4096),
            ),
            volumes=(
                VolumeDecl("db", logical_blocks=8192, workload="oltp"),
                VolumeDecl("logs", logical_blocks=8192, workload="sequential"),
                VolumeDecl("cold", logical_blocks=8192, workload="archive"),
            ),
        )
        sim = WaflSim.build(spec, seed=5)
        fill_volumes(sim, ops_per_cp=4096)
        sim.run(RandomOverwriteWorkload(sim, ops_per_cp=1024, seed=3), 4)
        return sim

    def test_one_page_per_space(self, tiered_sim):
        img = export_topaa(tiered_sim)
        assert len(img.group_blocks) == 2
        assert set(img.store_pages) == {"store:cloud"}
        assert set(img.vol_pages) == set(tiered_sim.vols)
        n_spaces = len(tiered_sim.store.physical_instances()) + len(tiered_sim.vols)
        assert len(img.group_blocks) + len(img.store_pages) + len(img.vol_pages) == n_spaces
        assert img.total_blocks == 2 + 2 * 1 + 2 * 3

    @pytest.mark.parametrize("use_topaa", [True, False])
    def test_mount_rebuilds_every_space(self, tiered_sim, use_topaa):
        before = _every_cache(tiered_sim)
        image = export_topaa(tiered_sim) if use_topaa else None
        rep = simulate_mount(tiered_sim, image)
        after = _every_cache(tiered_sim)
        assert rep.caches_built == len(before) == 6
        assert not rep.fallbacks
        for where, cache in after.items():
            assert cache is not None and cache is not before[where], where
        if use_topaa:
            assert rep.blocks_read == image.total_blocks
            background_rebuild(tiered_sim)
        for fs in tiered_sim.spaces():
            assert not fs.cache_seeded
            assert_scores_match(fs.keeper, fs.metafile.bitmap)
        tiered_sim.run(RandomOverwriteWorkload(tiered_sim, ops_per_cp=1024, seed=6), 3)
        tiered_sim.verify_consistency()
        _assert_healthy(tiered_sim)

    def test_corrupt_group_page_falls_back_for_that_group_only(self, tiered_sim):
        from repro.faults import corrupt_bytes

        img = export_topaa(tiered_sim)
        img.group_blocks[1] = corrupt_bytes(img.group_blocks[1], 8, rng=2)
        rep = simulate_mount(tiered_sim, img)
        assert rep.fallbacks == {"group:1": "bad-crc"}
        assert rep.caches_built == 6
        walked = tiered_sim.store.groups[1].metafile.metafile_block_count
        assert rep.blocks_read == img.total_blocks - 1 + walked
        background_rebuild(tiered_sim)
        _assert_healthy(tiered_sim)


class TestObjectTierMount:
    """One object tier: the physical store is an HBPS space too."""

    @pytest.fixture
    def object_sim(self):
        from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
        from repro.fs import WaflSim

        spec = AggregateSpec(
            tiers=(TierSpec(label="s3", media="object", raid="none",
                            nblocks=32768 * 4, blocks_per_aa=4096),),
            volumes=(VolumeDecl("v", logical_blocks=32768, blocks_per_aa=4096),),
        )
        sim = WaflSim.build(spec, seed=2)
        fill_volumes(sim, ops_per_cp=4096)
        sim.run(RandomOverwriteWorkload(sim, ops_per_cp=1024, seed=3), 4)
        return sim

    def test_background_rebuild_replenishes_the_store_cache(self, object_sim):
        simulate_mount(object_sim, export_topaa(object_sim))
        assert object_sim.store.members[0].cache.seeded
        rep = background_rebuild(object_sim)
        assert rep["hbps_caches_refreshed"] == 2  # the store and the volume
        for fs in object_sim.spaces():
            assert fs.cache.seeded is False
            assert_scores_match(fs.keeper, fs.metafile.bitmap)

    def _assert_paper_geometry(self, sim):
        from repro.common.constants import HBPS_BIN_WIDTH, HBPS_LIST_CAPACITY

        for fs in sim.spaces():
            hbps = fs.cache.hbps
            assert hbps.bin_width == min(HBPS_BIN_WIDTH, fs.topology.aa_blocks), fs.where
            assert hbps.list_capacity == HBPS_LIST_CAPACITY, fs.where

    def test_cache_tunables_survive_every_rebuild_path(self, object_sim):
        """Every path that builds a space's HBPS — build, both mounts,
        the background rebuild, Iron repair, leaving degraded mode —
        builds it at the paper's constants (the TopAA pages persist the
        bin width only; the list capacity is the loader's default)."""
        from repro.faults import escalate, exit_degraded
        from repro.fs import iron

        sim = object_sim
        self._assert_paper_geometry(sim)
        simulate_mount(sim, None)
        self._assert_paper_geometry(sim)
        simulate_mount(sim, export_topaa(sim))
        self._assert_paper_geometry(sim)
        background_rebuild(sim)
        iron.repair(sim, scope={"store", "vol:v"})
        self._assert_paper_geometry(sim)
        escalate(sim, {"store", "vol:v"})
        assert all(fs.degraded_alloc for fs in sim.spaces())
        exit_degraded(sim)
        self._assert_paper_geometry(sim)
        sim.run(RandomOverwriteWorkload(sim, ops_per_cp=1024, seed=6), 2)
        sim.verify_consistency()


class TestOneBitmapWalkPerSpace:
    """The one-pass-per-space rule (DESIGN, "How a mount works"): the
    scores a walk computes feed both the new cache and the new keeper,
    and a TopAA mount walks no bitmap at all."""

    @pytest.fixture
    def walks(self, aged_sim, monkeypatch):
        """Run ``action``; return how often each space's bitmap was
        walked, after checking every keeper against its bitmap."""
        from repro.bitmap.bitmap import Bitmap

        calls: list[int] = []
        inner = Bitmap.counts_per_chunk

        def counting(bitmap, chunk):
            calls.append(id(bitmap))
            return inner(bitmap, chunk)

        def run(action):
            spaces = list(aged_sim.spaces())
            assert all(fs.cache is not None for fs in spaces)
            calls.clear()
            with monkeypatch.context() as patched:
                patched.setattr(Bitmap, "counts_per_chunk", counting)
                action()
            for fs in spaces:
                assert_scores_match(fs.keeper, fs.metafile.bitmap)
            return [calls.count(id(fs.metafile.bitmap)) for fs in spaces]

        return run

    def test_bitmap_walk_mount(self, aged_sim, walks):
        assert walks(lambda: simulate_mount(aged_sim, None)) == [1, 1, 1]

    def test_topaa_mount_then_background_rebuild(self, aged_sim, walks):
        img = export_topaa(aged_sim)
        assert walks(lambda: simulate_mount(aged_sim, img)) == [0, 0, 0]
        # Every seed waits for the background walk, the small group's
        # too although it names every AA.
        seeded = [int(fs.cache_seeded) for fs in aged_sim.spaces()]
        assert sum(seeded) == 3
        assert walks(lambda: background_rebuild(aged_sim)) == seeded

    def test_iron_repair(self, aged_sim, walks):
        from repro.fs import iron

        aged_sim.engine.run_cp(CPBatch())  # Iron runs with the logs drained
        scan = walks(lambda: iron.scan(aged_sim))
        repair = walks(lambda: iron.repair(aged_sim))
        # Its own scan of the bitmap as found, then one walk of the
        # bitmap as rewritten.
        assert [r - s for r, s in zip(repair, scan)] == [1, 1, 1]
