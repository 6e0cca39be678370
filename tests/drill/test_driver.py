"""The one drill driver: a schedule that cannot run is refused — typed,
before anything moves — and the end-state checks it owns do not perturb
what they check."""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.bench.drills import (
    disk_failure_schedule,
    scripted_schedule,
    scripted_subject,
    traffic_engine,
)
from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.common.errors import FaultError, ReproError
from repro.crash import capture_image
from repro.drill import (
    END,
    ArmFault,
    CleanAAs,
    CorruptTopAA,
    CrashAt,
    DeleteSnapshot,
    FailDisk,
    FlipBits,
    MigrateTier,
    RebalanceTiers,
    ReplaceDisk,
    SetFreeBudget,
    SimFeed,
    Snapshot,
    driver,
    run_drill,
)
from repro.cluster import Fleet, MigrateShard
from repro.fs import WaflSim
from repro.tiering import FlashPoolPolicy, build_tiered_sim, volume_tier_blocks
from repro.workloads import RandomOverwriteWorkload, fill_volumes

from ..conftest import small_ssd_sim


def feed(sim) -> SimFeed:
    fill_volumes(sim)
    return SimFeed(sim, RandomOverwriteWorkload(sim, ops_per_cp=256, seed=2))


@pytest.fixture(scope="module")
def raid():
    return feed(small_ssd_sim())


@pytest.fixture(scope="module")
def tiered():
    return feed(build_tiered_sim(quick=True))


@pytest.fixture(scope="module")
def flash_pool():
    sim = WaflSim.build(AggregateSpec(
        tiers=(
            TierSpec(label="ssd", media="ssd", ndata=3, blocks_per_disk=4096,
                     stripes_per_aa=512),
            TierSpec(label="hdd", media="hdd", ndata=3, blocks_per_disk=8192,
                     stripes_per_aa=1024),
        ),
        volumes=(VolumeDecl("db", logical_blocks=8192),),
    ), seed=3)
    sim.store.tier_policy = FlashPoolPolicy()
    return feed(sim)


REFUSED_ON_RAID = {
    "unknown where label": ((0, FlipBits("vol:nope", 4, "set")),),
    "unknown label, armed": ((1, ArmFault("group:7", "transient-read", 1)),),
    "unknown label, topaa": ((0, CorruptTopAA("store", 4)),),
    "not a read fault": ((0, ArmFault("vol:volA", "disk-fail", 1)),),
    "bad flip direction": ((0, FlipBits("vol:volA", 4, "both")),),
    "replace with no earlier fail": ((2, ReplaceDisk(0, 1)),),
    "replace ahead of the fail": ((2, FailDisk(0, 1)), (1, ReplaceDisk(0, 1))),
    "replace of another disk": ((0, FailDisk(0, 1)), (1, ReplaceDisk(0, 2))),
    "second replace": ((0, FailDisk(0, 1)), (1, ReplaceDisk(0, 1)), (2, ReplaceDisk(0, 1))),
    "beyond the parity budget": ((0, FailDisk(0, 0)), (1, FailDisk(0, 1))),
    "no such disk": ((0, FailDisk(0, 9)),),
    "no such group": ((0, FailDisk(3, 0)),),
    "event at the last step + 1": ((3, FailDisk(0, 1)),),
    "event before step 0": ((-2, FailDisk(0, 1)),),
    "duplicate snapshot": ((0, Snapshot("volA", "s")), (1, Snapshot("volA", "s"))),
    "delete of no snapshot": ((0, DeleteSnapshot("volA", "s")),),
    "snapshot of no volume": ((0, Snapshot("volZ", "s")),),
    "non-positive free budget": ((0, SetFreeBudget(0)),),
    "cleaning no such group": ((0, CleanAAs(4, 1)),),
    "tier event on one tier": ((0, MigrateTier("volA", "smr")),),
    "tier pass on one tier": ((END, RebalanceTiers()),),
    "unknown crash edge": ((0, CrashAt("some")),),
    "fleet event on one aggregate": ((0, MigrateShard()),),
}

#: A Flash Pool places by its tier policy, not by per-volume pinning,
#: so there is no pin for a tier event to move.
REFUSED_ON_FLASH_POOL = {
    "migration": ((0, MigrateTier("db", "hdd")),),
    "rebalance": ((END, RebalanceTiers()),),
}

CLEANING_WITH_FREES_PENDING = {
    "cleaning under a free budget": ((0, SetFreeBudget(2)), (1, CleanAAs(0, 1))),
    "cleaning beside a snapshot delete": (
        (0, Snapshot("volA", "s")), (1, DeleteSnapshot("volA", "s")), (1, CleanAAs(0, 1)),
    ),
    # The step's crashes recover to the image the cleaning CP committed.
    "cleaning, then a crash in the same step": ((1, CleanAAs(0, 1)), (1, CrashAt())),
}


class TestRefusedBeforeAnythingMoves:
    @staticmethod
    def assert_refused(subject, schedule, steps=3):
        before = [capture_image(sim).digest() for sim in subject.sims()]
        clocks = [copy.deepcopy(d.stats) for sim in subject.sims() for d in sim.store.devices]
        with pytest.raises(FaultError) as refusal:
            run_drill(subject, schedule, steps, seed=1)
        assert isinstance(refusal.value, ReproError)
        assert before == [capture_image(sim).digest() for sim in subject.sims()]
        assert clocks == [d.stats for sim in subject.sims() for d in sim.store.devices]

    @pytest.mark.parametrize("why", sorted(REFUSED_ON_RAID))
    def test_on_a_raid_aggregate(self, raid, why):
        # Every schedule opens with events that could run: a refusal
        # found later in it must still come before they fire.
        opening = ((0, FlipBits("vol:volB", 8, "clear")), (0, SetFreeBudget(None)))
        self.assert_refused(raid, (*opening, *REFUSED_ON_RAID[why]))

    def test_non_positive_steps(self, raid):
        self.assert_refused(raid, (), steps=0)
        self.assert_refused(raid, ((0, FailDisk(0, 1)),), steps=-1)

    def test_on_a_tiered_aggregate(self, tiered):
        # Disk events address the aggregate's global RAID group index:
        # 0 is the mirrored SSD tier's group, 1 RAID-4 HDD, 2 RAID-DP SMR.
        self.assert_refused(tiered, ((0, FailDisk(1, 0)), (1, FailDisk(1, 1))))
        self.assert_refused(tiered, ((0, FailDisk(3, 0)),))
        self.assert_refused(tiered, ((0, MigrateTier("oltp0", "tape")),))
        self.assert_refused(tiered, ((0, MigrateTier("nope", "smr")),))
        # A snapshotted volume changes tier, snapshot and all.
        log = run_drill(tiered, ((0, Snapshot("oltp0", "s")), (1, MigrateTier("oltp0", "smr"))),
                        3, seed=1)
        assert (log.steps, log.failed_allocations) == (3, 0)
        assert not log.audit_violations and not log.iron_findings
        residency = volume_tier_blocks(tiered.sim, "oltp0")
        assert residency["flash"] == residency["disk"] == 0
        # A disk of every tier's group fails, then is rebuilt from parity.
        schedule = [(0, FailDisk(g, 1)) for g in range(3)]
        schedule += [(3, ReplaceDisk(g, 1)) for g in range(3)]
        log = run_drill(tiered, tuple(schedule), 5, seed=1)
        assert (log.steps, log.failed_allocations) == (5, 0) and log.rebuild_us > 0
        assert not log.audit_violations and not log.iron_findings
        assert not any(d.failed for d in tiered.sim.store.devices)

    @pytest.mark.parametrize("why", sorted(REFUSED_ON_FLASH_POOL))
    def test_tier_events_on_a_flash_pool(self, flash_pool, why):
        self.assert_refused(flash_pool, REFUSED_ON_FLASH_POOL[why])

    def test_single_aggregate_events_on_a_fleet(self):
        fleet = Fleet(2, 1, 3)
        self.assert_refused(fleet, ((0, FailDisk(0, 1)),))
        self.assert_refused(fleet, ((0, CrashAt()),))

    def test_a_runnable_schedule_is_not_refused(self):
        subject = feed(small_ssd_sim())
        schedule = (
            (0, FailDisk(0, 1)), (1, ReplaceDisk(0, 1)), (2, FailDisk(0, 1)),
            (0, Snapshot("volA", "s")), (1, DeleteSnapshot("volA", "s")), (2, CleanAAs(0, 1)),
        )
        log = run_drill(subject, schedule, 3, seed=1)
        assert (log.steps, log.failed_allocations) == (3, 0)
        assert not log.audit_violations and not log.iron_findings

    @pytest.mark.parametrize("why", sorted(CLEANING_WITH_FREES_PENDING))
    def test_cleaning_with_frees_pending(self, why):
        # The cleaner relocates mapped blocks in a CP of its own, so
        # frees still pending when it fires are the CP engine's to
        # settle, not a reason to refuse the pass.
        subject = feed(small_ssd_sim())
        log = run_drill(subject, CLEANING_WITH_FREES_PENDING[why], 3, seed=1)
        assert (log.steps, log.failed_allocations) == (3, 0)
        assert not log.audit_violations and not log.iron_findings
        assert len(log.evidence(CleanAAs)) == 1
        assert all(o.ok for found in log.evidence(CrashAt) for o in found)


class TestChecksDoNotPerturb:
    """``faults/scripted`` and ``traffic/disk-failure`` at quick size,
    end-state checks on and off: apart from what the checks themselves
    report, the same log — and the same subject afterwards (no rng
    draw, no armed fault consumed, no metafile read charged)."""

    @staticmethod
    def scripted():
        subject = scripted_subject(1234, ops_per_cp=1024, warmup_cps=3)
        # One armed fault nothing reads: a check that consumed it would show.
        schedule = (*scripted_schedule(8), (7, ArmFault("vol:volB", "transient-read", 1)))
        return subject, run_drill(subject, schedule, 8, seed=1234)

    @staticmethod
    def disk_failure():
        engine = traffic_engine("noisy-neighbor", 2, 65_536, seed=7)
        return engine, run_drill(engine, disk_failure_schedule(30), 30)

    @staticmethod
    def state_of(subject) -> list:
        sim = subject.sims()[0]
        injector = sim.vols[next(iter(sim.vols))].injector
        return [
            capture_image(sim).digest(),
            [d.stats for d in sim.store.devices],
            [(fs.where, fs.metafile.blocks_read_total) for fs in sim.spaces()],
            sim.metrics.cps,
            injector and (dict(injector._armed), injector.rng.bit_generator.state),
        ]

    @pytest.mark.parametrize("drill", ["scripted", "disk_failure"])
    def test_same_log_and_subject_with_checks_off(self, drill, monkeypatch):
        subject_on, on = getattr(self, drill)()
        assert on.audit_checks > 0
        monkeypatch.setattr(driver, "check_end_state", lambda sims: (0, [], []))
        subject_off, off = getattr(self, drill)()
        assert off.audit_checks == 0
        assert dataclasses.replace(on, audit_checks=0) == off
        assert self.state_of(subject_on) == self.state_of(subject_off)
