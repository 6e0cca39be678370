"""Fleet determinism: the cluster digest is a pure function of
(specs, placements, epochs) — byte-identical across pool worker counts
and across independently rebuilt clusters."""

from __future__ import annotations

import pytest

from repro.cluster import (
    Cluster,
    FilterScheduler,
    make_shard_specs,
    noisy_fleet_requests,
)
from repro.cluster.shard import ShardRuntime, _run_shard_task

#: Short epochs keep the module fast; digests only need to be equal.
EPOCH_CPS = 3


@pytest.fixture(scope="module")
def fleet():
    specs = make_shard_specs(4, seed=123)
    requests = noisy_fleet_requests(8, seed=9)
    cluster = Cluster(specs, scheduler=FilterScheduler(), epoch_cps=EPOCH_CPS)
    result = cluster.schedule(requests, rounds=1)
    return cluster, requests, result


def test_digests_identical_across_worker_counts(fleet):
    cluster, _, result = fleet
    for workers in (2, 8):
        cluster.workers = workers
        again = cluster.evaluate(result.epochs)
        assert again.digest == result.digest
        assert again.shard_digests == result.shard_digests
        assert again.tenant_p99_ms == result.tenant_p99_ms
    cluster.workers = None


def test_fewer_shards_than_workers_starts_no_pool(monkeypatch):
    """The pool is capped at the shard count, and a one-worker pool is
    the in-process path."""
    from repro.cluster import cluster as cluster_mod

    requests = noisy_fleet_requests(3, seed=9)

    def digest(workers):
        one = Cluster(
            make_shard_specs(1, seed=123),
            scheduler=FilterScheduler(),
            epoch_cps=EPOCH_CPS,
            workers=workers,
        )
        return one.schedule(requests, rounds=1).digest

    def no_pool(*args, **kwargs):
        raise AssertionError("started a pool for one shard")

    serial = digest(None)
    monkeypatch.setattr(cluster_mod, "ProcessPoolExecutor", no_pool)
    assert digest(8) == serial


def test_rebuilt_cluster_reproduces_the_digest(fleet):
    _, requests, result = fleet
    specs = make_shard_specs(4, seed=123)
    rebuilt = Cluster(specs, scheduler=FilterScheduler(), epoch_cps=EPOCH_CPS)
    again = rebuilt.schedule(requests, rounds=1)
    assert again.digest == result.digest
    assert again.placements == result.placements


def test_seed_changes_the_digest(fleet):
    _, requests, result = fleet
    specs = make_shard_specs(4, seed=124)
    other = Cluster(specs, scheduler=FilterScheduler(), epoch_cps=EPOCH_CPS)
    assert other.schedule(requests, rounds=1).digest != result.digest


def test_shard_task_replay_is_byte_identical():
    spec = make_shard_specs(1, seed=55)[0]
    reqs = tuple((r, 0) for r in noisy_fleet_requests(3, seed=4))
    args = (spec, reqs, 2, 3, True)
    sid_a, payload_a = _run_shard_task(args)
    sid_b, payload_b = _run_shard_task(args)
    assert sid_a == sid_b == spec.shard_id
    assert payload_a == payload_b
    assert payload_a["digest"] == payload_b["digest"]


def test_tenant_streams_independent_of_co_tenants():
    """Placing an extra tenant must not perturb an existing tenant's
    arrival/mix streams (seeds derive from the volume name, not the
    shard population) — the property that makes placement comparisons
    meaningful."""
    spec = make_shard_specs(1, seed=77)[0]
    [probe] = noisy_fleet_requests(1, seed=3)

    def arrivals_of(extra):
        rt = ShardRuntime(spec)
        rt.add_volume(probe)
        for r in extra:
            rt.add_volume(r)
        specs = {s.name: s for s in rt._tenant_specs(0)}
        arr = specs[probe.name].arrivals
        return [arr.next_after(float(t) * 1e4) for t in range(20)]

    alone = arrivals_of([])
    crowded = arrivals_of(noisy_fleet_requests(4, seed=8)[1:])
    assert alone == crowded
