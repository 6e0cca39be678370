"""The engine's saturation check: the event-driven engine's knee must
sit at the bottleneck capacity of the same measured per-op service
costs."""

from __future__ import annotations

import pytest

from .knee import knee_validation


class TestKneeCrossValidation:
    @pytest.fixture(scope="class")
    def report(self):
        # The fig6 quick configuration (65_536-block SSDs).
        return knee_validation(seed=7)

    def test_event_knee_within_10pct_of_capacity(self, report):
        assert report["capacity_ops"] > 0
        assert report["event_knee_ops"] > 0
        assert 0.9 <= report["knee_ratio"] <= 1.1

    def test_knees_sit_at_calibrated_capacity(self, report):
        # The capacity each run's own CPs imply (their mean occupancy
        # inverted) is the calibrated one, at every offered load.
        for p in report["points"]:
            assert p["engine_capacity_ops"] == pytest.approx(
                report["capacity_ops"], rel=0.1
            )

    def test_sweep_shape(self, report):
        points = report["points"]
        assert [p["offered_fraction"] for p in points] == [0.5, 0.8, 1.2, 2.0]
        # Below the knee the engine keeps up with offered load; above it
        # achieved throughput pins at capacity while p99 blows up.
        below = points[0]
        above = points[-1]
        assert below["achieved_ops_s"] == pytest.approx(
            below["offered_ops_s"], rel=0.1
        )
        assert above["achieved_ops_s"] < 0.75 * above["offered_ops_s"]
        assert above["p99_ms"] > 10 * below["p99_ms"]
