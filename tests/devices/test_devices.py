"""Unit tests for the device cost models (DESIGN.md substitutions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices import (
    HDD,
    SSD,
    HDDConfig,
    ObjectStore,
    ObjectStoreConfig,
    SMRConfig,
    SMRDrive,
    SSDConfig,
)


class TestHDD:
    def test_chain_cost_model(self):
        cfg = HDDConfig(seek_us=1000, transfer_us_per_block=10)
        d = HDD(10000, cfg)
        us = d.write_blocks(np.array([0, 1, 2, 50, 51]))
        assert us == 2 * 1000 + 5 * 10
        assert d.stats.seeks == 2
        assert d.stats.host_blocks_written == 5
        assert d.stats.write_amplification == 1.0

    def test_fragmentation_costs_more(self):
        cfg = HDDConfig()
        a, b = HDD(100000, cfg), HDD(100000, cfg)
        contiguous = a.write_blocks(np.arange(64))
        scattered = b.write_blocks(np.arange(64) * 100)
        assert scattered > 4 * contiguous

    def test_read_costs(self):
        cfg = HDDConfig(seek_us=1000, transfer_us_per_block=10)
        d = HDD(10000, cfg)
        assert d.read_blocks(2) == 2 * 1010
        assert d.read_blocks(0, 10) == 1000 + 100

    def test_empty_write_free(self):
        d = HDD(100)
        assert d.write_blocks(np.array([], dtype=np.int64)) == 0.0


class TestSSD:
    def make(self, eb=64, nblocks=4096, open_units=4):
        return SSD(nblocks, SSDConfig(erase_block_blocks=eb,
                                      max_open_units=open_units))

    def test_fresh_aligned_write_no_amplification(self):
        d = self.make()
        d.write_blocks(np.arange(128))  # two whole erase units
        d.flush_open_units()
        assert d.write_amplification == 1.0
        assert d.relocated_blocks == 0

    def test_streaming_across_calls_no_relocation(self):
        """Consecutive CPs filling the same open unit stream for free —
        the open-unit behaviour WAFL's sequential AA fill relies on."""
        d = self.make()
        d.write_blocks(np.arange(0, 32))
        d.write_blocks(np.arange(32, 64))  # same unit, still open
        d.flush_open_units()
        assert d.relocated_blocks == 0

    def test_stranded_partial_unit_relocates(self):
        """Figure 4A: an AA smaller than the erase unit strands the
        unit; reopening it later relocates the live remainder."""
        d = self.make()
        d.write_blocks(np.arange(0, 32))
        d.flush_open_units()  # unit closed with 32 live pages
        d.write_blocks(np.arange(32, 64))  # reopen: 32-page liability
        d.flush_open_units()
        assert d.relocated_blocks == 32
        assert d.write_amplification == pytest.approx(96 / 64)

    def test_trim_prevents_relocation(self):
        d = self.make()
        d.write_blocks(np.arange(0, 64))
        d.flush_open_units()
        d.trim(np.arange(0, 64))
        d.write_blocks(np.arange(0, 32))
        d.flush_open_units()
        assert d.relocated_blocks == 0

    def test_trim_during_session_pays_down(self):
        d = self.make()
        d.write_blocks(np.arange(0, 64))
        d.flush_open_units()
        d.write_blocks(np.arange(0, 16))  # reopen with 64-page liability
        d.trim(np.arange(16, 64))  # the rest is freed mid-session
        d.flush_open_units()
        assert d.relocated_blocks == 0

    def test_full_overwrite_no_relocation(self):
        d = self.make()
        d.write_blocks(np.arange(0, 64))
        d.flush_open_units()
        d.write_blocks(np.arange(0, 64))  # overwrite pays the liability
        d.flush_open_units()
        assert d.relocated_blocks == 0
        assert d.erase_counts[0] == 2

    def test_lru_eviction_closes_units(self):
        d = self.make(open_units=2)
        d.write_blocks(np.arange(0, 32))        # open unit 0 (no liability)
        d.flush_open_units()
        d.write_blocks(np.arange(32, 48))       # reopen 0: liability 32
        d.write_blocks(np.arange(64, 80))       # open unit 1
        assert d.relocated_blocks == 0
        d.write_blocks(np.arange(128, 144))     # open unit 2 -> evict unit 0
        assert d.relocated_blocks == 32
        assert set(d.open_units) == {1, 2}

    def test_erase_counts_accumulate(self):
        d = self.make()
        for _ in range(5):
            d.write_blocks(np.arange(0, 64))
            d.flush_open_units()
        assert d.erase_counts[0] == 5
        assert d.erase_counts[1] == 0

    def test_live_fraction(self):
        d = self.make(nblocks=128)
        d.write_blocks(np.arange(64))
        assert d.live_fraction() == pytest.approx(0.5)

    def test_wa_inverse_density_law(self):
        """WA ~ 1/(1-u) when filling u-occupied erase units — the
        quantitative core of the section 4.1.1 result."""
        for live_frac in (0.25, 0.5, 0.75):
            d = self.make(eb=64, nblocks=64 * 64)
            live_per_eb = int(64 * live_frac)
            prime = np.concatenate(
                [np.arange(e * 64, e * 64 + live_per_eb) for e in range(64)]
            )
            d.write_blocks(prime)
            d.flush_open_units()
            # Measure: write the free remainder of every erase unit.
            d.stats.host_blocks_written = 0
            d.stats.device_blocks_written = 0
            fill = np.concatenate(
                [np.arange(e * 64 + live_per_eb, (e + 1) * 64) for e in range(64)]
            )
            d.write_blocks(fill)
            d.flush_open_units()
            expect = 1.0 / (1.0 - live_frac)
            assert d.write_amplification == pytest.approx(expect, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            SSD(100, SSDConfig(erase_block_blocks=0))
        with pytest.raises(ValueError):
            SSD(100, SSDConfig(max_open_units=0))


class TestSMR:
    def make(self, zone=1000):
        return SMRDrive(100000, SMRConfig(zone_blocks=zone, seek_us=100,
                                          transfer_us_per_block=1,
                                          rewrite_penalty_us=10000))

    def test_sequential_append_no_penalty(self):
        d = self.make()
        d.write_blocks(np.arange(0, 500))
        d.write_blocks(np.arange(500, 900))
        assert d.rewrites == 0

    def test_rewrite_behind_pointer_penalized(self):
        d = self.make()
        d.write_blocks(np.arange(0, 500))
        us = d.write_blocks(np.array([100]))
        assert d.rewrites == 1
        assert us >= 10000

    def test_new_zone_fresh_pointer(self):
        d = self.make()
        d.write_blocks(np.arange(0, 500))  # zone 0
        d.write_blocks(np.arange(1000, 1100))  # zone 1: fresh
        assert d.rewrites == 0

    def test_chain_accounting(self):
        d = self.make()
        d.write_blocks(np.array([0, 1, 2, 700, 701]))
        assert d.stats.seeks == 2

    def test_multi_zone_batch_updates_pointers(self):
        d = self.make()
        d.write_blocks(np.concatenate([np.arange(0, 10), np.arange(1000, 1010)]))
        d.write_blocks(np.array([5, 1005]))
        assert d.rewrites == 2


class TestObjectStore:
    def test_put_coalescing(self):
        cfg = ObjectStoreConfig(put_us=1000, transfer_us_per_block=1,
                                max_blocks_per_put=1024, concurrency=1)
        d = ObjectStore(100000, cfg)
        one_chain = d.write_blocks(np.arange(100))
        d2 = ObjectStore(100000, cfg)
        scattered = d2.write_blocks(np.arange(100) * 10)
        assert scattered > one_chain

    def test_concurrency_divides_cost(self):
        base = ObjectStoreConfig(concurrency=1)
        par = ObjectStoreConfig(concurrency=8)
        a = ObjectStore(100000, base).write_blocks(np.arange(100))
        b = ObjectStore(100000, par).write_blocks(np.arange(100))
        assert a == pytest.approx(8 * b)

    def test_reads(self):
        d = ObjectStore(100000)
        assert d.read_blocks(5) > 0
