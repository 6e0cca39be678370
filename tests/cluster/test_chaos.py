"""The aggregate-kill drill: tenants rehome through the scheduler,
audits and Iron stay clean, and victim tails stay under their bound."""

from __future__ import annotations

import pytest

from repro.bench.drills import CHAOS_SCHEDULE, chaos_fleet, chaos_metrics
from repro.cluster import Evacuate, KillShard
from repro.drill import run_drill


@pytest.fixture(scope="module")
def drill():
    fleet = chaos_fleet(77)
    log = run_drill(fleet, CHAOS_SCHEDULE, 2)
    return fleet, log, chaos_metrics(fleet, log)


def test_kill_rebalances_with_zero_findings(drill):
    fleet, log, report = drill
    (moved,) = log.evidence(Evacuate)
    assert moved.stranded == () and report["stranded"] == []
    assert report["iron_findings"] == 0
    assert report["audit_checks"] > 0
    # Every evacuee left the dead shard for a live one.
    (killed,) = log.evidence(KillShard)
    assert not fleet.shards[killed].alive and not fleet.shards[killed].tenants
    assert all(sid != killed for sid in moved.evacuated.values())
    assert len(moved.evacuated) > 0
    # The driver's end state covers the dead aggregate too.
    assert log.steps == 2 and not log.audit_violations and not log.iron_findings


def test_victim_p99_stays_bounded(drill):
    report = drill[2]
    assert report["victim_p99_ms"], "drill must observe at least one victim"
    assert report["victims_bounded"]
    for name, p99 in report["victim_p99_ms"].items():
        assert 0.0 < p99 <= report["victim_bound_ms"][name]


def test_report_serializes_deterministically(drill):
    _fleet, log, d = drill
    assert d["killed_shard"] == log.evidence(KillShard)[0]
    assert list(d["evacuated"]) == sorted(d["evacuated"])
    assert d["victims_bounded"] is True
    assert {m["volume"] for m in d["migrations"]} == set(d["evacuated"])
