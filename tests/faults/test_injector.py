"""Unit tests for the deterministic fault injector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common import FaultError
from repro.core import PAGE_KIND_HBPS, seal_page, unseal_page
from repro.common.errors import SerializationError
from repro.faults import FaultInjector, FaultKind, corrupt_bytes, flip_bitmap_bits
from repro.bitmap.metafile import BitmapMetafile


class TestOneShots:
    def test_armed_faults_fire_exactly_count_times(self):
        inj = FaultInjector(seed=1)
        inj.arm("vol:a", FaultKind.TRANSIENT_READ, count=2)
        fired = [inj.consume("vol:a", FaultKind.TRANSIENT_READ) for _ in range(5)]
        assert fired == [True, True, False, False, False]
        assert inj.injected[("vol:a", FaultKind.TRANSIENT_READ)] == 2

    def test_targets_are_independent(self):
        inj = FaultInjector(seed=1)
        inj.arm("group:0", FaultKind.UNRECONSTRUCTABLE)
        assert not inj.consume("group:1", FaultKind.UNRECONSTRUCTABLE)
        assert not inj.consume("group:0", FaultKind.TRANSIENT_READ)
        assert inj.consume("group:0", FaultKind.UNRECONSTRUCTABLE)

    def test_roll_drains_armed_then_samples(self):
        inj = FaultInjector(seed=1)
        inj.arm("vol:a", FaultKind.LATENT_SECTOR_ERROR, count=3)
        assert inj.roll("vol:a", FaultKind.LATENT_SECTOR_ERROR, 10) == 3
        assert inj.roll("vol:a", FaultKind.LATENT_SECTOR_ERROR, 10) == 0

    def test_roll_bounded_by_n(self):
        inj = FaultInjector(seed=1)
        inj.arm("vol:a", FaultKind.LATENT_SECTOR_ERROR, count=100)
        assert inj.roll("vol:a", FaultKind.LATENT_SECTOR_ERROR, 4) == 4

    def test_invalid_configuration_rejected(self):
        inj = FaultInjector(seed=1)
        with pytest.raises(FaultError):
            inj.arm("vol:a", FaultKind.TRANSIENT_READ, count=0)
        with pytest.raises(FaultError):
            inj.set_rate("vol:a", FaultKind.TRANSIENT_READ, 1.5)


class TestRates:
    def test_rate_one_always_fires(self):
        inj = FaultInjector(seed=1)
        inj.set_rate("store", FaultKind.TRANSIENT_READ, 1.0)
        assert all(inj.consume("store", FaultKind.TRANSIENT_READ) for _ in range(10))

    def test_rate_zero_clears(self):
        inj = FaultInjector(seed=1)
        inj.set_rate("store", FaultKind.TRANSIENT_READ, 0.5)
        inj.set_rate("store", FaultKind.TRANSIENT_READ, 0.0)
        assert not any(inj.consume("store", FaultKind.TRANSIENT_READ) for _ in range(20))

    def test_binomial_roll_plausible(self):
        inj = FaultInjector(seed=1)
        inj.set_rate("store", FaultKind.LATENT_SECTOR_ERROR, 0.1)
        hits = inj.roll("store", FaultKind.LATENT_SECTOR_ERROR, 10_000)
        assert 800 < hits < 1200

    def test_same_seed_same_draws(self):
        def draws(seed):
            inj = FaultInjector(seed=seed)
            inj.set_rate("store", FaultKind.TRANSIENT_READ, 0.3)
            inj.set_rate("vol:a", FaultKind.LATENT_SECTOR_ERROR, 0.05)
            out = []
            for _ in range(50):
                out.append(inj.consume("store", FaultKind.TRANSIENT_READ))
                out.append(inj.roll("vol:a", FaultKind.LATENT_SECTOR_ERROR, 64))
            return out

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)


class TestSchedule:
    """*When* a fault fires is a drill schedule (the injector's own
    ``schedule``/``due`` retired for it)."""

    @staticmethod
    def subject():
        from repro.drill import SimFeed
        from repro.workloads import RandomOverwriteWorkload, fill_volumes

        from ..conftest import small_ssd_sim

        sim = small_ssd_sim()
        fill_volumes(sim)
        return SimFeed(sim, RandomOverwriteWorkload(sim, ops_per_cp=256, seed=2))

    def test_due_pops_in_order_and_once(self):
        from repro.drill import END, FailDisk, FlipBits, ReplaceDisk, Scrub, run_drill

        schedule = (
            (2, FailDisk(0, 1)),
            (0, FlipBits("vol:volA", 8, "clear")),
            (END, ReplaceDisk(0, 1)),
            (0, Scrub(window=0)),
        )
        log = run_drill(self.subject(), schedule, 3, seed=1)
        # Step order, schedule order within a step, the scrub's own
        # follow-up ahead of the step it lands on, END last; each once.
        assert [(step, type(event).__name__) for step, event, _ in log.fired] == [
            (0, "FlipBits"), (0, "Scrub"), (1, "RebuildCaches"),
            (2, "FailDisk"), (END, "ReplaceDisk"),
        ]

    def test_due_records_tallies(self):
        from repro.drill import ArmFault, CorruptTopAA, Mount, run_drill

        subject = self.subject()
        schedule = (
            (0, ArmFault("vol:volB", FaultKind.TRANSIENT_READ, 2)),
            (0, CorruptTopAA("vol:volB", 4)),
            (0, Mount()),
        )
        log = run_drill(subject, schedule, 1, seed=1)
        (mount,) = log.evidence(Mount)
        assert mount.transient_retries == 2
        injector = subject.sim.vols["volB"].injector
        assert injector.injected[("vol:volB", FaultKind.TRANSIENT_READ)] == 2
        assert injector.injected_total == 2


class TestDamageHelpers:
    def test_corrupt_bytes_breaks_sealed_page_crc(self):
        payload = bytes(range(256)) * 16
        page = seal_page(payload, PAGE_KIND_HBPS, num_aas=32)
        bad = corrupt_bytes(page, 4, rng=3)
        assert bad != page
        with pytest.raises(SerializationError):
            unseal_page(bad, PAGE_KIND_HBPS, num_aas=32)
        # The pristine page still verifies.
        assert unseal_page(page, PAGE_KIND_HBPS, num_aas=32) == payload

    def test_corrupt_bytes_deterministic(self):
        data = b"x" * 4096
        assert corrupt_bytes(data, 8, rng=5) == corrupt_bytes(data, 8, rng=5)

    def test_flip_clear_direction(self):
        mf = BitmapMetafile(4096)
        mf.allocate(np.arange(1000, dtype=np.int64))
        before = mf.bitmap.allocated_count
        out = flip_bitmap_bits(mf.bitmap, 10, rng=1, direction="clear")
        assert out == {"set": 0, "cleared": 10}
        assert mf.bitmap.allocated_count == before - 10

    def test_flip_set_direction(self):
        mf = BitmapMetafile(4096)
        mf.allocate(np.arange(1000, dtype=np.int64))
        before = mf.bitmap.allocated_count
        out = flip_bitmap_bits(mf.bitmap, 10, rng=1, direction="set")
        assert out == {"set": 10, "cleared": 0}
        assert mf.bitmap.allocated_count == before + 10

    def test_flip_both_splits(self):
        mf = BitmapMetafile(4096)
        mf.allocate(np.arange(1000, dtype=np.int64))
        out = flip_bitmap_bits(mf.bitmap, 10, rng=1, direction="both")
        assert out["cleared"] == 5 and out["set"] == 5

    def test_flip_rejects_bad_direction(self):
        mf = BitmapMetafile(128)
        with pytest.raises(FaultError):
            flip_bitmap_bits(mf.bitmap, 1, rng=1, direction="sideways")
