"""One volume lifecycle: every path that adds a FlexVol — the builder,
a shard taking a tenant, a migration's target — is refused by
``WaflSim.add_volume`` with the same typed error, before anything
moves."""

from __future__ import annotations

import re

import pytest

from repro.cluster import ShardRuntime, VolumeRequest, make_shard_specs, migrate_volume
from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.common.errors import GeometryError
from repro.fs import WaflSim

TIER = TierSpec(label="ssd", media="ssd", ndata=3, blocks_per_disk=4096, stripes_per_aa=512)


@pytest.fixture(scope="module")
def shards():
    """Two shards of 32,768 blocks (8,192 of them the calibration
    volume's): both host ``t``; the source also hosts ``big``, which
    fits only beside the source's smaller tenant set."""
    source, target = (ShardRuntime(s) for s in make_shard_specs(2, seed=5))
    source.add_volume(VolumeRequest("t", 640))
    source.add_volume(VolumeRequest("big", 23_936))
    target.add_volume(VolumeRequest("t", 640))
    target.add_volume(VolumeRequest("w", 640))
    return source, target


ATTEMPTS = {
    "build/over-capacity": lambda shards: WaflSim.build(AggregateSpec(
        tiers=(TIER,), volumes=(VolumeDecl("a", 8192), VolumeDecl("b", 8192)))),
    "shard/over-capacity": lambda shards: shards[1].add_volume(VolumeRequest("big", 23_936)),
    "shard/duplicate": lambda shards: shards[1].add_volume(VolumeRequest("t", 640)),
    "migration/over-capacity": lambda shards: migrate_volume(*shards, "big"),
    "migration/duplicate": lambda shards: migrate_volume(*shards, "t"),
}


@pytest.mark.parametrize("attempt", sorted(ATTEMPTS))
def test_every_path_that_adds_a_volume_is_refused_by_waflsim(shards, attempt):
    def state():
        return [(list(rt.sim.vols), int(rt.sim.store.free_count), dict(rt.tenants))
                for rt in shards]

    before = state()
    with pytest.raises(GeometryError) as info:
        ATTEMPTS[attempt](shards)
    raiser = info.traceback[-1]
    assert raiser.name == "add_volume" and isinstance(raiser.locals["self"], WaflSim)
    if attempt.endswith("duplicate"):
        assert str(info.value) == "volume 't' exists"
    else:
        assert re.match(r"volumes address \d+ blocks but the aggregate has only \d+ ",
                        str(info.value))
    assert state() == before


def test_the_builder_never_meets_a_duplicate_name():
    # The spec refuses it first, so the builder path has one refusal.
    with pytest.raises(ValueError, match="duplicate volume names"):
        AggregateSpec(tiers=(TIER,), volumes=(VolumeDecl("a", 8), VolumeDecl("a", 8)))
