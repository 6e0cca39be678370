"""Filter/weigher scheduler unit tests: both filters prune for their
own reason, weighing is order-independent with a stable tie-break, and
placements project into the stats snapshot."""

from __future__ import annotations

import pytest

from repro.cluster import (
    CapacityFilter,
    FilterScheduler,
    FreeSpaceWeigher,
    HeadroomWeigher,
    QosHeadroomFilter,
    RandomPlacer,
    ShardStats,
    VolumeRequest,
)
from repro.common.errors import PlacementError


def mkstats(
    shard_id: int,
    *,
    free: int = 10_000,
    total: int = 32_768,
    committed: float = 0.0,
    aa: float = 1.0,
    p99: float = 0.0,
    alive: bool = True,
) -> ShardStats:
    return ShardStats(
        shard_id=shard_id,
        total_blocks=total,
        free_blocks=free,
        projected_free_blocks=free,
        committed_fraction=committed,
        n_volumes=0,
        media=("ssd",),
        tiers=("fast",),
        ndata=4,
        capacity_ops=90_000.0,
        aa_free_fraction=aa,
        worst_p99_ms=p99,
        alive=alive,
    )


def req(**kw) -> VolumeRequest:
    base = dict(name="vol", logical_blocks=640)
    base.update(kw)
    return VolumeRequest(**base)


class TestFilters:
    def test_capacity_filter_applies_slack(self):
        # A placement may fill 90 % of the projected free blocks.
        f = CapacityFilter()
        assert f.passes(req(logical_blocks=900), mkstats(0, free=1000))
        assert not f.passes(req(logical_blocks=901), mkstats(0, free=1000))

    def test_qos_headroom_filter(self):
        f = QosHeadroomFilter(headroom=1.0)
        assert f.passes(req(offered_fraction=0.4), mkstats(0, committed=0.5))
        assert not f.passes(req(offered_fraction=0.6), mkstats(0, committed=0.5))


class TestWeighers:
    def test_free_space_is_a_fraction_of_total(self):
        w = FreeSpaceWeigher()
        small = mkstats(0, free=500, total=1000)
        big = mkstats(1, free=600, total=10_000)
        # 50% free beats 6% free even though 600 > 500 blocks.
        assert w.weigh(req(), small) > w.weigh(req(), big)

    def test_headroom_prefers_less_committed(self):
        w = HeadroomWeigher()
        assert w.weigh(req(), mkstats(0, committed=0.1)) > w.weigh(
            req(), mkstats(1, committed=1.2)
        )


class TestFilterScheduler:
    def test_winner_is_least_loaded(self):
        sched = FilterScheduler()
        stats = [
            mkstats(0, committed=1.2, p99=9.0),
            mkstats(1, committed=0.1),
            mkstats(2, committed=0.6),
        ]
        decision = sched.place(req(), stats)
        assert decision.shard_id == 1
        assert decision.candidates == (0, 1, 2)

    def test_tie_breaks_on_lowest_shard_id(self):
        sched = FilterScheduler()
        stats = [mkstats(2), mkstats(0), mkstats(1)]
        assert sched.place(req(), stats).shard_id == 0

    def test_order_independent(self):
        def run(order):
            sched = FilterScheduler()
            stats = [
                mkstats(0, committed=0.9),
                mkstats(1, committed=0.2, free=9_000),
                mkstats(2, committed=0.2, free=9_500),
                mkstats(3, committed=1.5),
            ]
            reordered = [stats[i] for i in order]
            return sched.place(req(), reordered).shard_id

        winners = {run(order) for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1])}
        assert len(winners) == 1

    def test_placement_projects_into_stats(self):
        sched = FilterScheduler()
        stats = [mkstats(0), mkstats(1)]
        first = sched.place(req(name="a", offered_fraction=0.5), stats)
        winner = next(s for s in stats if s.shard_id == first.shard_id)
        assert winner.projected_free_blocks == 10_000 - 640
        assert winner.committed_fraction == pytest.approx(0.5)
        assert winner.placed == ["a"]
        # The projection steers the second placement elsewhere.
        second = sched.place(req(name="b", offered_fraction=0.5), stats)
        assert second.shard_id != first.shard_id

    def test_dead_shards_are_never_candidates(self):
        sched = FilterScheduler()
        stats = [mkstats(0, alive=False), mkstats(1, committed=2.0)]
        assert sched.place(req(), stats).shard_id == 1

    def test_no_survivor_raises_with_filter_detail(self):
        sched = FilterScheduler()
        stats = [mkstats(0, free=100), mkstats(1, free=100)]
        with pytest.raises(PlacementError, match="capacity"):
            sched.place(req(logical_blocks=640), stats)

    def test_rejections_are_recorded_per_filter(self):
        sched = FilterScheduler()
        stats = [mkstats(0, free=100), mkstats(1)]
        decision = sched.place(req(), stats)
        assert decision.rejected == {"capacity": (0,)}


class TestRandomPlacer:
    def test_deterministic_given_seed_and_order(self):
        def run():
            placer = RandomPlacer(seed=42)
            stats = [mkstats(i) for i in range(8)]
            return [placer.place(req(name=f"v{i}"), stats).shard_id for i in range(16)]

        assert run() == run()

    def test_respects_capacity(self):
        placer = RandomPlacer(seed=0)
        stats = [mkstats(0, free=100), mkstats(1)]
        for i in range(4):
            assert placer.place(req(name=f"v{i}"), stats).shard_id == 1


class TestVolumeRequest:
    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError, match="profile"):
            VolumeRequest("v", 640, profile="bogus")

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            VolumeRequest("v", 0)
