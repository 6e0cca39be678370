"""Acceptance sweep for the crash-state explorer: every span edge of
consecutive aging CPs crashes, recovers to the last committed CP, and
passes the full verification triple — and the same seed reproduces the
whole sweep byte-identically."""

from __future__ import annotations

import pytest

from repro.bench.drills import _crash_claims, crash_metrics, crash_schedule, crash_subject
from repro.crash import CrashOutcome, Replay, crash_digest
from repro.crash.registry import BOUNDARY_SPAN, CrashPoint
from repro.drill import CrashAt, DrillLog, run_drill


def sweep(unit: str, cps: int, seed: int) -> tuple[DrillLog, list[CrashOutcome], dict]:
    log = run_drill(crash_subject(unit, seed), crash_schedule(unit, cps), cps, seed=seed)
    outcomes = [o for found in log.evidence(CrashAt) for o in found]
    return log, outcomes, crash_metrics(unit, seed, log)


@pytest.fixture(scope="module")
def matrix():
    return sweep("aging", 3, 0)


class TestAgingAcceptance:
    def test_every_crash_point_recovers_clean(self, matrix):
        log, outcomes, metrics = matrix
        assert all(o.ok for o in outcomes)
        assert metrics["violations"] == []
        assert metrics["cps_swept"] == 3
        assert len(log.committed_digests) == 3
        assert all(c.holds for c in _crash_claims({"aging": {"metrics": metrics}}))
        # The drill's own end state: the timeline the crashes interrupted.
        assert log.steps == 3 and not log.audit_violations and not log.iron_findings

    def test_sweep_is_exhaustive(self, matrix):
        """Each CP contributes its full edge inventory (cp enter/exit,
        per-volume allocation, boundary, pricing, cache flush...)."""
        _log, outcomes, metrics = matrix
        assert metrics["crash_points"] == len(outcomes) >= 3 * 10
        names = {o.point.name for o in outcomes}
        assert {"cp", "cp.allocate", BOUNDARY_SPAN} <= names
        assert all(o.crashed for o in outcomes)

    def test_torn_write_cases_are_exercised_and_recovered(self, matrix):
        """Crashes inside the write window tear shadow + TopAA pages;
        those very cases must still recover byte-exactly."""
        torn = [o for o in matrix[1] if o.torn_pages]
        assert torn
        assert all(o.ok for o in torn)
        assert all(o.in_write_window for o in torn)

    def test_both_sides_of_the_window_are_covered(self, matrix):
        outcomes = matrix[1]
        assert any(o.in_write_window for o in outcomes)
        assert any(not o.in_write_window for o in outcomes)
        # A bare run_cp has no edges after the superblock switch.
        assert not any(o.post_commit for o in outcomes)

    def test_recovery_cost_is_modeled(self, matrix):
        assert all(o.recovery_us > 0 for o in matrix[1])
        assert all(o.restored == 3 for o in matrix[1])


class TestDeterminism:
    def test_same_seed_same_matrix(self):
        log_a, a, metrics_a = sweep("aging", 2, 7)
        log_b, b, metrics_b = sweep("aging", 2, 7)
        assert metrics_a["digest"] == metrics_b["digest"]
        assert [o.row() for o in a] == [o.row() for o in b]
        assert log_a.committed_digests == log_b.committed_digests

    def test_different_seed_different_matrix(self):
        assert sweep("aging", 1, 7)[2]["digest"] != sweep("aging", 1, 8)[2]["digest"]


class TestMatrixReporting:
    def outcome(self, **kw) -> CrashOutcome:
        base = dict(
            cp_index=4,
            point=CrashPoint(index=2, name=BOUNDARY_SPAN, edge="enter"),
            in_write_window=True,
            post_commit=False,
            crashed=True,
            torn_pages=("vol:volA",),
            restored=3,
            retries=0,
            recovery_us=1000.0,
            violations=(),
        )
        base.update(kw)
        return CrashOutcome(**base)

    @staticmethod
    def log_of(*sweeps, digests=("d",)) -> DrillLog:
        log = DrillLog(committed_digests=list(digests))
        log.fired = [(i, CrashAt(), list(found)) for i, found in enumerate(sweeps)]
        return log

    @staticmethod
    def holds(metrics: dict) -> bool:
        return all(c.holds for c in _crash_claims({"x": {"metrics": metrics}}))

    def test_empty_matrix_is_not_ok(self):
        metrics = crash_metrics("x", 0, DrillLog())
        assert metrics["crash_points"] == 0 and metrics["violations"] == []
        assert not self.holds(metrics)

    def test_violation_flips_matrix_and_digest(self):
        good = crash_metrics("x", 0, self.log_of([self.outcome()]))
        bad_outcome = self.outcome(violations=("[vol:volA] leaked",))
        bad = crash_metrics("x", 0, self.log_of([bad_outcome]))
        assert self.holds(good) and not self.holds(bad)
        assert bad["violations"] == [f"{bad_outcome.row()}: [vol:volA] leaked"]
        assert good["digest"] != bad["digest"]
        assert good["digest"] == crash_digest("x:0", [self.outcome()], ["d"])

    def test_row_is_canonical(self):
        row = self.outcome().row()
        assert row == (
            "cp=4 #2 cp.boundary:enter window=1 post=0 "
            "torn=vol:volA restored=3 retries=0 ok"
        )
        replayed = self.outcome(replay=Replay(step=3, consistent=True, ops={"t1": 2, "t0": 5}))
        assert replayed.row() == (
            "step=3 #2 cp.boundary:enter window=1 post=0 torn=vol:volA ops=t0=5,t1=2 ok"
        )
        diverged = self.outcome(replay=Replay(step=3, consistent=False, ops={}))
        assert not diverged.ok and diverged.row().endswith("ops=- FAIL")

    def test_extend_merges_sweeps(self):
        log = self.log_of(
            [self.outcome()], [self.outcome(cp_index=5)], digests=("d1", "d2")
        )
        metrics = crash_metrics("x", 0, log)
        assert metrics["crash_points"] == 2
        assert metrics["cps_swept"] == 2
        assert metrics["torn_write_cases"] == 2
