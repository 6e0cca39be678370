"""Fleet determinism: the cluster digest is a pure function of
(specs, placements, epochs) — byte-identical across pool worker counts,
across independently rebuilt clusters, and between shards kept resident
over a ``schedule()`` and shards rebuilt and replayed from epoch 0."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.cluster import (
    Cluster,
    FilterScheduler,
    make_shard_specs,
    noisy_fleet_requests,
)
from repro.cluster.shard import ShardRuntime, advance_shard, digest_of
from repro.analysis import arm_global, disarm_global
from repro.common.errors import GeometryError
from repro.fs.cp import CPEngine

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
    sid_a, payload_a = advance_shard(args, {})
    sid_b, payload_b = advance_shard(args, {})
    assert sid_a == sid_b == spec.shard_id
    assert payload_a == payload_b
    assert payload_a["digest"] == payload_b["digest"]
    # The same shard advanced an epoch at a time, where it lives.
    residents: dict = {}
    advance_shard((spec, reqs, 1, 3, True), residents)
    assert advance_shard(args, residents) == (sid_a, payload_a)
    assert list(residents) == [spec.shard_id]


@pytest.mark.parametrize("workers", [None, 2, 8])
@pytest.mark.parametrize("rounds", [1, 2, 3, 4])
def test_resident_schedule_equals_full_replay(rounds, workers):
    """schedule() runs every epoch once on resident shards; evaluate()
    on its own, and a freshly built cluster, replay from scratch."""
    specs = make_shard_specs(3, seed=321)
    requests = noisy_fleet_requests(8, seed=9)

    def fleet(w):
        return Cluster(specs, scheduler=FilterScheduler(), epoch_cps=2, workers=w)

    cluster = fleet(workers)
    resident = cluster.schedule(requests, rounds=rounds)
    assert multiprocessing.active_children() == []
    fresh = fleet(None)
    for other in (cluster.evaluate(rounds), fresh.schedule(requests, rounds=rounds)):
        assert other.digest == resident.digest
        assert other.shard_digests == resident.shard_digests
        assert other.tenant_p99_ms == resident.tenant_p99_ms
    assert fresh.placements == cluster.placements
    assert resident.epochs == rounds and len(resident.tenant_p99_ms) == len(requests)


def test_snapshots_between_epochs_do_not_change_the_history():
    """The property residency rests on: a stats refresh reads the shard
    and writes nothing an epoch reads."""
    spec = make_shard_specs(1, seed=55)[0]
    requests = noisy_fleet_requests(3, seed=4)

    def final_digest(snapshots):
        rt = ShardRuntime(spec)
        for request in requests:
            rt.add_volume(request)
        for _ in range(3):
            rt.run_epoch(2)
            for _ in range(snapshots):
                rt.stats()
                rt.payload()
        return digest_of(rt.payload())

    assert final_digest(0) == final_digest(2)


def test_fleets_over_the_same_shard_ids_do_not_share_residents():
    """Two clusters, same shard ids, scheduled back to back in one
    process — in-process first, so the second one's workers fork after
    residents existed here — each reproduce their solo digest."""
    requests = noisy_fleet_requests(6, seed=9)

    def digest(seed, workers):
        cluster = Cluster(
            make_shard_specs(2, seed=seed),
            scheduler=FilterScheduler(),
            epoch_cps=2,
            workers=workers,
        )
        return cluster.schedule(requests).digest

    solo_a, solo_b = digest(11, None), digest(12, None)
    assert solo_a != solo_b
    assert (digest(11, None), digest(12, 2)) == (solo_a, solo_b)
    assert (digest(12, None), digest(11, 2)) == (solo_b, solo_a)


def test_worker_error_reaches_the_caller_and_leaves_no_process():
    """A shard that cannot take a volume fails in its worker; the caller
    sees the typed error and every worker has been joined."""
    specs = make_shard_specs(2, seed=123)
    [request] = noisy_fleet_requests(1, seed=9)
    cluster = Cluster(specs, epoch_cps=2, workers=2)
    # The same name placed twice on one shard: add_volume refuses it.
    cluster.placements[specs[1].shard_id] = [(request, 0), (request, 0)]
    with pytest.raises(GeometryError, match="exists"):
        cluster.evaluate(1)
    assert multiprocessing.active_children() == []
    with pytest.raises(GeometryError, match="exists"):
        cluster.schedule(noisy_fleet_requests(2, seed=3)[1:])
    assert multiprocessing.active_children() == []
    assert cluster._fleet is None


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


def test_advance_shard_leaves_the_callers_arming_alone(monkeypatch):
    monkeypatch.setattr(CPEngine, "default_auditor_factory", None)  # restored after
    spec = make_shard_specs(1, seed=55)[0]
    reqs = tuple((r, 0) for r in noisy_fleet_requests(3, seed=4))
    arm_global(raise_on_violation=False)
    outer = CPEngine.default_auditor_factory
    residents: dict = {}
    for epochs in (1, 2):
        advance_shard((spec, reqs, epochs, 3, True), residents)
        assert CPEngine.default_auditor_factory is outer
    assert not outer().raise_on_violation
    # Unarmed, an audited call arms for itself only.
    disarm_global()
    advance_shard((spec, reqs, 3, 3, True), residents)
    assert CPEngine.default_auditor_factory is None
