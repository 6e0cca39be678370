"""The aggregate-kill drill: tenants rehome through the scheduler,
audits and Iron stay clean, and victim tails stay under their bound."""

from __future__ import annotations

import pytest

from repro.cluster import run_cluster_chaos


@pytest.fixture(scope="module")
def report():
    return run_cluster_chaos(
        n_shards=6, tenants_per_shard=2, seed=77, epoch_cps=4
    )


def test_kill_rebalances_with_zero_findings(report):
    assert report.stranded == []
    assert report.iron_findings == 0
    assert report.audit_checks > 0
    # Every evacuee left the dead shard for a live one.
    assert all(sid != report.killed_shard for sid in report.evacuated.values())
    assert len(report.evacuated) > 0


def test_victim_p99_stays_bounded(report):
    assert report.victim_p99_ms, "drill must observe at least one victim"
    assert report.victims_bounded
    for name, p99 in report.victim_p99_ms.items():
        assert 0.0 < p99 <= report.victim_bound_ms[name]


def test_report_serializes_deterministically(report):
    d = report.as_dict()
    assert d["killed_shard"] == report.killed_shard
    assert list(d["evacuated"]) == sorted(d["evacuated"])
    assert d["victims_bounded"] is True
    assert {m["volume"] for m in d["migrations"]} == set(d["evacuated"])
