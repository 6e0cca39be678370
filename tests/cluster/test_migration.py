"""Online migration: drain + replay bookkeeping, block conservation,
and a round-trip that leaves the invariant audit and Iron scan clean."""

from __future__ import annotations

import pytest

from repro.cluster import (
    ShardRuntime,
    ShardSpec,
    VolumeRequest,
    make_shard_specs,
    migrate_volume,
    run_rebalance,
)
from repro.analysis import audit_sim
from repro.common.errors import MigrationError
from repro.crash import capture_image
from repro.fs import iron


@pytest.fixture()
def pair():
    tier = make_shard_specs(1, seed=0)[0].tier
    source = ShardRuntime(ShardSpec(shard_id=0, seed=101, tier=tier))
    target = ShardRuntime(ShardSpec(shard_id=1, seed=202, tier=tier))
    return source, target


def test_migration_conserves_blocks_and_state(pair):
    source, target = pair
    vol = VolumeRequest("mover", 640, offered_fraction=0.08)
    source.add_volume(vol)
    source.run_epoch(3)
    used = int(source.sim.vols["mover"].used_blocks)
    assert used > 0
    source.carryover["mover"] = source.carryover.get("mover", 0) + 17

    free_src = int(source.sim.store.free_count)
    free_tgt = int(target.sim.store.free_count)
    report = migrate_volume(source, target, "mover")

    assert report.blocks_copied == report.blocks_freed == used
    assert report.ops_drained == report.ops_replayed == 17
    assert report.iron_findings == 0
    assert report.audit_checks > 0
    # The source got every block back; the target paid exactly them.
    assert int(source.sim.store.free_count) == free_src + used
    assert int(target.sim.store.free_count) == free_tgt - used
    # Registries moved with the volume.
    assert "mover" not in source.tenants
    assert "mover" not in source.sim.vols
    assert source.carryover == {}
    assert target.tenants["mover"] is vol
    assert target.carryover["mover"] == 17
    assert int(target.sim.vols["mover"].used_blocks) == used


def test_target_replays_drained_ops(pair):
    source, target = pair
    source.add_volume(VolumeRequest("mover", 640, offered_fraction=0.08))
    source.run_epoch(3)
    migrate_volume(source, target, "mover")
    drained = target.carryover.get("mover", 0)
    result = target.run_epoch(3)
    assert result is not None
    summary = result.tenants["mover"]
    # Replayed ops ride the target's CPs on top of the epoch's own
    # arrivals (admitted counts them; completions include them).
    assert summary.admitted >= drained
    assert summary.completed > 0
    assert target.carryover.get("mover", 0) >= 0


def test_round_trip_leaves_both_aggregates_clean(pair):
    source, target = pair
    source.add_volume(VolumeRequest("mover", 640, offered_fraction=0.08))
    source.run_epoch(3)
    migrate_volume(source, target, "mover")
    target.run_epoch(3)
    back = migrate_volume(target, source, "mover")
    assert back.blocks_copied == back.blocks_freed
    assert back.iron_findings == 0
    source.run_epoch(3)
    for rt in (source, target):
        assert iron.scan(rt.sim).findings == []
        rt.sim.verify_consistency()


def _state(pair):
    return [(capture_image(rt.sim).digest(), int(rt.sim.store.free_count),
             dict(rt.tenants)) for rt in pair]


@pytest.fixture()
def refused(pair):
    """Assert a migration is refused with MigrationError and that both
    shards' images, free counts and tenant maps are untouched."""
    source, _ = pair
    source.add_volume(VolumeRequest("mover", 640, offered_fraction=0.08))
    source.run_epoch(3)

    def _refused(src, dst, name, match):
        before = _state(pair)
        with pytest.raises(MigrationError, match=match):
            migrate_volume(src, dst, name)
        assert _state(pair) == before

    return _refused


def test_migrating_unknown_volume_raises(pair, refused):
    refused(*pair, "ghost", "hosts no volume 'ghost'")  # a bare KeyError before


def test_dead_target_is_refused(pair, refused):
    # Used to *succeed*, stranding the tenant on a shard no epoch runs.
    pair[1].alive = False
    refused(*pair, "mover", "shard 1 is dead")


def test_migrating_onto_the_source_is_refused(pair, refused):
    # Used to surface as GeometryError("volume exists") from add_volume.
    refused(pair[0], pair[0], "mover", "both source and target")


def test_snapshotted_volume_is_refused_before_anything_moves(pair):
    # ROADMAP item 1's probe: this used to raise a bare AssertionError
    # after the volume had left the source, orphaning its pinned blocks.
    source, target = pair
    request = VolumeRequest("mover", 640, offered_fraction=0.08)
    source.add_volume(request)
    source.run_epoch(3)
    source.sim.create_snapshot("mover", "s1")
    before = [(int(rt.sim.store.free_count), dict(rt.tenants), set(rt.sim.vols))
              for rt in pair]
    with pytest.raises(MigrationError, match="snapshots"):
        migrate_volume(source, target, "mover")
    assert before == [(int(rt.sim.store.free_count), dict(rt.tenants), set(rt.sim.vols))
                      for rt in pair]
    assert tuple(source.sim.vols["mover"].snapshots) == ("s1",)
    for rt in pair:
        assert audit_sim(rt.sim).ok
        assert iron.scan(rt.sim).clean


def test_run_rebalance_reports_conservation():
    out = run_rebalance(n_shards=3, seed=31)
    mig = out["migration"]
    assert mig["blocks_copied"] == mig["blocks_freed"] > 0
    assert mig["iron_findings"] == 0
    assert set(out["worst_p99_before"]) == set(out["worst_p99_after"]) == {0, 1, 2}
    assert set(out["free_blocks_after"]) == {0, 1, 2}
