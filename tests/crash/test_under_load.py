"""Crash consistency under live multi-tenant traffic: the noisy-
neighbor sweep covers post-commit edges, and mid-CP crashes under load
replay their admitted-but-uncommitted ops deterministically."""

from __future__ import annotations

import pytest

from repro.common.errors import FaultError
from repro.drill import CrashAt, run_drill

from .test_explorer import sweep


@pytest.fixture(scope="module")
def matrix():
    return sweep("noisy-neighbor", 2, 0)


class TestNoisyNeighborSweep:
    def test_every_crash_point_recovers_clean(self, matrix):
        _log, outcomes, metrics = matrix
        assert all(o.ok for o in outcomes)
        assert metrics["violations"] == []
        assert metrics["cps_swept"] == 2
        assert metrics["torn_write_cases"] > 0

    def test_traffic_edges_extend_the_inventory(self, matrix):
        """An engine step wraps run_cp in admission spans, so the sweep
        includes edges *after* the modeled superblock switch — crashes
        there must land on the NEW CP, and did."""
        outcomes = matrix[1]
        names = {o.point.name for o in outcomes}
        assert "traffic.step" in names
        post = [o for o in outcomes if o.post_commit]
        assert post
        assert all(o.ok for o in post)


class TestCrashUnderLoad:
    def test_replay_is_deterministic(self):
        log, crashes, metrics = sweep("under-load", 4, 5)
        assert metrics["violations"] == []
        assert metrics["steps"] == log.steps == 4
        assert len(crashes) == 2
        assert len(log.committed_digests) == 4
        for crash in crashes:
            assert crash.ok and crash.replay.consistent
            assert crash.violations == ()
            # The replayed CP re-applied the admitted ops.
            assert sum(crash.replay.ops.values()) > 0
        assert [c.replay.step for c in crashes] == [1, 3]

    def test_same_seed_same_report(self):
        _, a, metrics_a = sweep("under-load", 2, 9)
        _, b, metrics_b = sweep("under-load", 2, 9)
        assert metrics_a["digest"] == metrics_b["digest"]
        assert [c.row() for c in a] == [c.row() for c in b]

    def test_rejects_degenerate_schedules(self):
        from repro.bench.drills import crash_subject

        engine = crash_subject("under-load", 0)
        with pytest.raises(FaultError):
            run_drill(engine, (), 0)
        with pytest.raises(FaultError):
            run_drill(engine, ((0, CrashAt("never")),), 2)
        with pytest.raises(FaultError):
            run_drill(engine, ((2, CrashAt("seeded")),), 2)
        assert engine.clock_us == 0.0
