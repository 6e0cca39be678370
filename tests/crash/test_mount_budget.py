"""Satellite (b): the mount walk and the background rebuild draw from
ONE bounded retry budget, every retry is counted in the MountReport,
and exhaustion surfaces as the typed RecoveryExhaustedError — through
both the bare mount API and PersistenceModel.recover()."""

from __future__ import annotations

import pytest

from repro.common import RecoveryExhaustedError, RetryBudget
from repro.crash import PersistenceModel
from repro.faults import FaultInjector, FaultKind, attach_everywhere, corrupt_bytes
from repro.fs import background_rebuild, export_topaa, simulate_mount
from repro.fs.mount import DEFAULT_MOUNT_RETRIES


@pytest.fixture
def faulty(aged_sim):
    inj = FaultInjector(seed=1)
    attach_everywhere(aged_sim, inj)
    return aged_sim, inj


class TestSharedBudget:
    def test_mount_and_rebuild_share_one_pool(self, faulty):
        sim, inj = faulty
        img = export_topaa(sim)
        # Force volB onto the bitmap walk, then make that walk flaky.
        img.vol_pages["volB"] = corrupt_bytes(img.vol_pages["volB"], 8, rng=2)
        inj.arm("vol:volB", FaultKind.TRANSIENT_READ, count=2)
        budget = RetryBudget(6)
        rep = simulate_mount(sim, img, budget=budget)
        assert rep.transient_retries == 2
        assert rep.retry_budget_limit == 6
        assert budget.used == 2

        # The rebuild re-reads volA (TopAA-seeded); its retries come out
        # of the *same* pool and land in the same report.
        inj.arm("vol:volA", FaultKind.TRANSIENT_READ, count=2)
        rebuild = background_rebuild(sim, budget=budget, report=rep)
        assert rebuild["hbps_caches_refreshed"] >= 1
        assert rep.rebuild_retries == 2
        assert rep.total_retries == 4
        assert budget.used == 4

    def test_combined_retries_are_bounded_together(self, faulty):
        """A mount that burned most of the budget leaves the rebuild
        almost none — the whole-recovery bound the per-phase loops used
        to miss."""
        sim, inj = faulty
        img = export_topaa(sim)
        img.vol_pages["volB"] = corrupt_bytes(img.vol_pages["volB"], 8, rng=2)
        inj.arm("vol:volB", FaultKind.TRANSIENT_READ, count=2)
        budget = RetryBudget(3)
        rep = simulate_mount(sim, img, budget=budget)
        assert budget.remaining == 1

        inj.arm("vol:volA", FaultKind.TRANSIENT_READ, count=2)
        with pytest.raises(RecoveryExhaustedError, match="budget exhausted"):
            background_rebuild(sim, budget=budget, report=rep)
        assert budget.used == 3

    def test_default_budget_per_call_still_bounds(self, faulty):
        sim, inj = faulty
        img = export_topaa(sim)
        img.vol_pages["volB"] = corrupt_bytes(img.vol_pages["volB"], 8, rng=2)
        inj.arm("vol:volB", FaultKind.TRANSIENT_READ, count=10)
        with pytest.raises(RecoveryExhaustedError):
            simulate_mount(sim, img, budget=RetryBudget(2))


class TestRecoveryPath:
    def test_recover_absorbs_transient_faults(self, faulty):
        sim, inj = faulty
        model = PersistenceModel(sim, seed=1)
        inj.arm("vol:volA", FaultKind.TRANSIENT_READ, count=2)
        report = model.recover()
        assert report.mount.rebuild_retries == 2
        assert report.mount.total_retries == 2
        assert report.mount.retry_budget_limit == DEFAULT_MOUNT_RETRIES
        # Retried reads charge modeled backoff, never corrupt state.
        assert set(report.restored) == {"group:0", "vol:volA", "vol:volB"}

    def test_recover_exhaustion_is_typed(self, faulty):
        sim, inj = faulty
        model = PersistenceModel(sim, seed=1)
        inj.arm("vol:volA", FaultKind.TRANSIENT_READ, count=5)
        with pytest.raises(RecoveryExhaustedError):
            model.recover(budget=RetryBudget(1))

    def test_caller_supplied_budget_threads_through(self, faulty):
        sim, inj = faulty
        model = PersistenceModel(sim, seed=1)
        inj.arm("vol:volA", FaultKind.TRANSIENT_READ, count=2)
        budget = RetryBudget(8)
        report = model.recover(budget=budget)
        assert budget.used == 2
        assert report.mount.retry_budget_limit == 8
