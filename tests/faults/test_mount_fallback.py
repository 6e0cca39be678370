"""Self-healing mount: checksummed TopAA pages, per-FS fallback,
bounded retries, media-error escalation (satellites of the
fault-injection PR)."""

from __future__ import annotations

import struct

import pytest

from repro.analysis import audit_sim
from repro.common import RecoveryExhaustedError, RetryBudget, TransientIOError
from repro.core import PAGE_KIND_HBPS, PAGE_KIND_HEAP_SEED, seal_page, unseal_page
from repro.core.topaa import serialize_hbps_cache
from repro.faults import FaultInjector, FaultKind, attach_everywhere, corrupt_bytes
from repro.fs import export_topaa, simulate_mount
from repro.fs.iron import scan
from repro.workloads import RandomOverwriteWorkload, fill_volumes

from ..conftest import small_ssd_sim


@pytest.fixture
def aged_sim():
    s = small_ssd_sim()
    fill_volumes(s, ops_per_cp=8192)
    s.run(RandomOverwriteWorkload(s, ops_per_cp=2048, seed=3), 6)
    return s


class TestPageVerification:
    def test_corrupt_page_falls_back_only_that_fs(self, aged_sim):
        img = export_topaa(aged_sim)
        img.vol_pages["volB"] = corrupt_bytes(img.vol_pages["volB"], 8, rng=2)
        rep = simulate_mount(aged_sim, img)
        assert rep.fallbacks == {"vol:volB": "bad-crc"}
        assert rep.caches_built == 3
        # volB was rebuilt from its bitmap (exact scores, not seeded);
        # the corrupt page never installed a cache.
        assert aged_sim.vol("volB").cache.seeded is False
        # The others really did load from TopAA (seeded).
        assert aged_sim.vol("volA").cache.seeded is True
        # Fallback pays the full metafile walk for volB only.
        expected = (img.total_blocks - 2) + aged_sim.vol(
            "volB"
        ).metafile.metafile_block_count
        assert rep.blocks_read == expected

    def test_missing_vol_page_falls_back(self, aged_sim):
        """A volume present in the simulator but absent from the TopAA
        image must not crash the mount (regression: KeyError)."""
        img = export_topaa(aged_sim)
        del img.vol_pages["volA"]
        rep = simulate_mount(aged_sim, img)
        assert rep.fallbacks == {"vol:volA": "missing-page"}
        assert rep.caches_built == 3
        aged_sim.run(RandomOverwriteWorkload(aged_sim, ops_per_cp=1024, seed=5), 3)
        aged_sim.verify_consistency()

    def test_truncated_page_detected(self, aged_sim):
        img = export_topaa(aged_sim)
        img.vol_pages["volB"] = img.vol_pages["volB"][:100]
        rep = simulate_mount(aged_sim, img)
        assert rep.fallbacks["vol:volB"] == "truncated"

    def test_stale_page_detected(self, aged_sim):
        """A page exported for a different AA count (pre-grow image)
        must not seed a cache of the wrong shape."""
        img = export_topaa(aged_sim)
        vol = aged_sim.vol("volB")
        img.vol_pages["volB"] = seal_page(
            serialize_hbps_cache(vol.cache), PAGE_KIND_HBPS, vol.topology.num_aas + 1
        )
        rep = simulate_mount(aged_sim, img)
        assert rep.fallbacks["vol:volB"] == "stale"

    def test_wrong_kind_detected(self, aged_sim):
        img = export_topaa(aged_sim)
        vol = aged_sim.vol("volB")
        payload = unseal_page(
            img.vol_pages["volB"], PAGE_KIND_HBPS, vol.topology.num_aas
        )
        img.vol_pages["volB"] = seal_page(payload, 1, vol.topology.num_aas)
        rep = simulate_mount(aged_sim, img)
        assert rep.fallbacks["vol:volB"] == "wrong-kind"

    def test_corrupt_group_block_falls_back(self, aged_sim):
        img = export_topaa(aged_sim)
        img.group_blocks[0] = corrupt_bytes(img.group_blocks[0], 8, rng=2)
        rep = simulate_mount(aged_sim, img)
        assert rep.fallbacks == {"group:0": "bad-crc"}
        assert aged_sim.store.groups[0].cache.fully_populated

    def test_inconsistent_hbps_page_falls_back(self, aged_sim):
        """A CRC-valid page whose structure no HBPS can have — bin 0
        unlisted while a worse bin stays listed — is refused like a
        damaged one, not raised out of the mount."""
        img = export_topaa(aged_sim)
        vol = aged_sim.vol("volA")
        listed_bins = {b for _, b in vol.cache.hbps.iter_listed()}
        assert 0 in listed_bins and max(listed_bins) > 0
        n = vol.topology.num_aas
        payload = bytearray(unseal_page(img.vol_pages["volA"], PAGE_KIND_HBPS, n))
        # Bin 0's list index: the word after its count, past the 24-byte header.
        struct.pack_into("<I", payload, 28, 0xFFFFFFFF)
        img.vol_pages["volA"] = seal_page(bytes(payload), PAGE_KIND_HBPS, n)
        rep = simulate_mount(aged_sim, img)
        assert rep.fallbacks == {"vol:volA": "bad-structure"}
        assert aged_sim.vol("volA").cache.seeded is False
        assert aged_sim.vol("volB").cache.seeded is True
        assert audit_sim(aged_sim).ok

    def test_heap_seed_naming_an_aa_twice_falls_back(self, aged_sim):
        img = export_topaa(aged_sim)
        n = aged_sim.store.groups[0].topology.num_aas
        payload = bytearray(unseal_page(img.group_blocks[0], PAGE_KIND_HEAP_SEED, n))
        payload[8:12] = payload[0:4]  # entry 1 names entry 0's AA
        img.group_blocks[0] = seal_page(bytes(payload), PAGE_KIND_HEAP_SEED, n)
        rep = simulate_mount(aged_sim, img)
        assert rep.fallbacks == {"group:0": "bad-structure"}
        assert aged_sim.store.groups[0].cache.fully_populated
        assert audit_sim(aged_sim).ok

    def test_heap_seed_score_above_capacity_falls_back(self, aged_sim):
        """A CRC-valid seed scoring an AA above the blocks it holds must
        not become the heap's best AA."""
        img = export_topaa(aged_sim)
        g = aged_sim.store.groups[0]
        n = g.topology.num_aas
        payload = bytearray(unseal_page(img.group_blocks[0], PAGE_KIND_HEAP_SEED, n))
        struct.pack_into("<I", payload, 4, 10 * g.topology.aa_blocks)  # entry 0's score
        img.group_blocks[0] = seal_page(bytes(payload), PAGE_KIND_HEAP_SEED, n)
        rep = simulate_mount(aged_sim, img)
        assert rep.fallbacks == {"group:0": "bad-structure"}
        assert g.cache.best_score() <= g.topology.aa_blocks
        assert audit_sim(aged_sim).ok

    def test_pristine_image_has_no_fallbacks(self, aged_sim):
        img = export_topaa(aged_sim)
        rep = simulate_mount(aged_sim, img)
        assert rep.fallbacks == {}
        assert rep.repairs == []
        assert rep.blocks_read == img.total_blocks


class TestFaultyMountReads:
    def test_transient_read_retries_with_backoff(self, aged_sim):
        inj = FaultInjector(seed=1)
        attach_everywhere(aged_sim, inj)
        img = export_topaa(aged_sim)
        img.vol_pages["volB"] = corrupt_bytes(img.vol_pages["volB"], 8, rng=2)
        inj.arm("vol:volB", FaultKind.TRANSIENT_READ, count=2)
        rep = simulate_mount(aged_sim, img)
        assert rep.transient_retries == 2
        assert rep.retry_backoff_us > 0
        assert rep.modeled_read_us > rep.blocks_read * 250.0
        assert rep.fallbacks == {"vol:volB": "bad-crc"}

    def test_retries_exhausted_raises(self, aged_sim):
        inj = FaultInjector(seed=1)
        attach_everywhere(aged_sim, inj)
        img = export_topaa(aged_sim)
        img.vol_pages["volB"] = corrupt_bytes(img.vol_pages["volB"], 8, rng=2)
        inj.arm("vol:volB", FaultKind.TRANSIENT_READ, count=10)
        # The typed exhaustion error subclasses TransientIOError, so
        # callers keyed on the old class keep working.
        with pytest.raises(RecoveryExhaustedError) as exc_info:
            simulate_mount(aged_sim, img, budget=RetryBudget(2))
        assert isinstance(exc_info.value, TransientIOError)
        assert "budget exhausted" in str(exc_info.value)

    def test_media_error_escalates_to_scoped_repair(self, aged_sim):
        inj = FaultInjector(seed=1)
        attach_everywhere(aged_sim, inj)
        img = export_topaa(aged_sim)
        img.vol_pages["volB"] = corrupt_bytes(img.vol_pages["volB"], 8, rng=2)
        inj.arm("vol:volB", FaultKind.UNRECONSTRUCTABLE)
        rep = simulate_mount(aged_sim, img)
        assert rep.repairs == ["vol:volB"]
        assert rep.caches_built == 3
        assert scan(aged_sim).clean
        aged_sim.run(RandomOverwriteWorkload(aged_sim, ops_per_cp=1024, seed=5), 3)
        aged_sim.verify_consistency()

    def test_cps_run_after_degraded_mount(self, aged_sim):
        img = export_topaa(aged_sim)
        img.vol_pages["volB"] = corrupt_bytes(img.vol_pages["volB"], 8, rng=2)
        del img.vol_pages["volA"]
        simulate_mount(aged_sim, img)
        aged_sim.run(RandomOverwriteWorkload(aged_sim, ops_per_cp=1024, seed=7), 5)
        aged_sim.verify_consistency()
