"""A disk failure and rebuild beneath live multi-tenant traffic must
cost latency, never operations."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.bench.drills import (
    PHASES,
    disk_failure_metrics,
    disk_failure_schedule,
    traffic_engine,
)
from repro.common.errors import FaultError
from repro.drill import FailDisk, ReplaceDisk, run_drill

STEPS = 18


def disk_failure(schedule=None):
    engine = traffic_engine("uniform", 2, 16_384, seed=7)
    log = run_drill(engine, schedule or disk_failure_schedule(STEPS), STEPS)
    return disk_failure_metrics(log, engine), log


class TestChaosUnderLoad:
    @pytest.fixture(scope="class")
    def outcome(self):
        return disk_failure()

    def test_no_tenant_loses_an_operation(self, outcome):
        metrics, log = outcome
        assert metrics["failed_allocations"] == log.failed_allocations == 0
        assert metrics["cps_completed"] == log.steps == STEPS

    def test_failure_and_repair_happened(self, outcome):
        metrics, log = outcome
        assert metrics["disk_failures"] == 1
        assert metrics["disks_replaced"] == 1
        assert metrics["rebuild_us"] == log.rebuild_us > 0
        assert log.evidence(ReplaceDisk) == [log.rebuild_us]
        assert (log.step_of(FailDisk), log.step_of(ReplaceDisk)) == (6, 12)

    def test_degraded_reads_were_reconstructed(self, outcome):
        metrics, _ = outcome
        assert metrics["reconstruction_reads"] > 0
        assert metrics["degraded_stripes"] > 0

    def test_every_phase_serves_every_tenant(self, outcome):
        metrics, _ = outcome
        assert tuple(metrics["phase_p99_ms"]) == PHASES
        for phase in PHASES:
            for name in ("t0", "t1"):
                assert metrics["phase_completed"][phase][name] > 0
                assert metrics["phase_p99_ms"][phase][name] > 0.0

    def test_validation(self):
        # Replacement scheduled ahead of the failure: refused, typed,
        # before the engine takes a step.
        engine = traffic_engine("uniform", 2, 16_384, seed=7)
        backwards = ((8, FailDisk(0, 1)), (4, ReplaceDisk(0, 1)))
        with pytest.raises(FaultError, match="no earlier event failed"):
            run_drill(engine, backwards, 10)
        assert engine.clock_us == 0.0 and not engine.sim.store.groups[0].failed_disks

    def test_same_seed_replays(self):
        (a, log_a), (b, log_b) = disk_failure(), disk_failure()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert dataclasses.asdict(log_a) == dataclasses.asdict(log_b)
