"""The settable values that survived ``SimConfig``: the paper's one
dial (``AggregateSpec.threshold_fraction``, section 3.3.1) reaches the
allocator that consumes it on every store shape, and each of the four
remaining parameters — and ``TierSpec.azcs`` off SMR or on a disk of
partial checksum regions, a negative or wrong-media device override,
a QoS contract that could never admit an op, and a NaN or infinite
rate, duration, fraction, device cost or traffic-engine timing —
rejects a value outside its domain by name."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from repro.cluster import Cluster, FilterScheduler, VolumeRequest, make_shard_specs
from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.fs import WaflSim
from repro.fs.aggregate import RAIDStore
from repro.obs import Tracer
from repro.traffic import (
    OnOffArrivals,
    PoissonArrivals,
    QosLimits,
    TenantSpec,
    TokenBucket,
    TrafficEngine,
)
from repro.workloads import UniformOverwriteMix

SSD_TIER = TierSpec(label="ssd", media="ssd", ndata=3,
                    blocks_per_disk=32768, stripes_per_aa=2048)
SPEC = AggregateSpec(tiers=(SSD_TIER,), volumes=(VolumeDecl("volA", 16384),))
NAN, INF = float("nan"), float("inf")


def _nonfinite(field, build, name):
    return pytest.param(field, build, id=f"{field}-{name}")


def _engine(**timing):
    """A one-tenant engine over a stand-in sim (construction reads only
    its volume names)."""
    tenant = TenantSpec(name="t", volume="v", arrivals=PoissonArrivals(100.0, seed=1),
                        mix=UniformOverwriteMix(64, seed=1))
    return TrafficEngine(SimpleNamespace(vols={"v": None}), [tenant], **timing)


class TestThresholdFromConfig:
    def test_raidstore_reads_config(self):
        store = RAIDStore(SSD_TIER, threshold_fraction=0.1, seed=7)
        assert store.allocator.threshold_fraction == 0.1

    def test_build_reads_config(self):
        spec = dataclasses.replace(SPEC, threshold_fraction=0.1)
        sim = WaflSim.build(spec, seed=7)
        assert sim.store.members[0].allocator.threshold_fraction == 0.1

    def test_tiered_build_hands_the_cutoff_to_every_raid_member(self):
        spec = AggregateSpec(
            tiers=(
                SSD_TIER,
                TierSpec(label="disk", media="hdd", n_groups=2, ndata=3,
                         blocks_per_disk=32768),
                TierSpec(label="cloud", media="object", raid="none", nblocks=65536),
            ),
            volumes=(VolumeDecl("volA", 16384),),
            threshold_fraction=0.25,
        )
        store = WaflSim.build(spec, seed=7).store
        raid_members = [m for m in store.members if isinstance(m, RAIDStore)]
        assert len(raid_members) == 2
        assert [m.allocator.threshold_fraction for m in raid_members] == [0.25, 0.25]

    def test_loose_kwarg_is_gone(self):
        # The spec is the one channel: neither a tunables object nor a
        # loose keyword reaches the builder.
        with pytest.raises(TypeError):
            WaflSim.build(SPEC, config=object(), seed=7)
        with pytest.raises(TypeError):
            WaflSim.build(SPEC, threshold_fraction=0.1, seed=7)

    def test_default_comes_from_sim_config(self):
        assert AggregateSpec(tiers=(SSD_TIER,)).threshold_fraction == 0.0
        assert RAIDStore(SSD_TIER, seed=7).allocator.threshold_fraction == 0.0
        assert WaflSim.build(SPEC, seed=7).store.members[0].allocator.threshold_fraction == 0.0


@pytest.mark.parametrize(
    "field, build",
    [
        ("threshold_fraction",
         lambda: AggregateSpec(tiers=(SSD_TIER,), threshold_fraction=1.0)),
        ("threshold_fraction",
         lambda: AggregateSpec(tiers=(SSD_TIER,), threshold_fraction=-0.1)),
        ("epoch_cps", lambda: Cluster(make_shard_specs(1, seed=1), epoch_cps=0)),
        ("workers", lambda: Cluster(make_shard_specs(1, seed=1), workers=0)),
        ("workers", lambda: Cluster(make_shard_specs(1, seed=1), workers=-2)),
        ("headroom_fraction", lambda: FilterScheduler(headroom_fraction=0.0)),
        ("ring_capacity", lambda: Tracer(ring_capacity=0)),
        # AZCS checksum regions exist only on SMR, and only whole ones
        # fit the device (a partial last region's checksum LBA would
        # land past the end of the disk).
        ("azcs", lambda: TierSpec(label="t", media="ssd", ndata=3,
                                  blocks_per_disk=63 * 64, azcs=True)),
        ("azcs", lambda: TierSpec(label="t", media="hdd", ndata=3,
                                  blocks_per_disk=63 * 64, azcs=True)),
        ("azcs", lambda: TierSpec(label="t", media="smr", ndata=3, blocks_per_disk=65536,
                                  stripes_per_aa=512, azcs=True)),
        # A device override is never negative, and only the media whose
        # device model reads it may set it (elsewhere it was ignored).
        ("program_us_per_block", lambda: TierSpec(label="t", media="ssd",
                                                  program_us_per_block=-50.0)),
        ("rewrite_penalty_us", lambda: TierSpec(label="t", media="smr", ndata=3,
                                                blocks_per_disk=63 * 64, azcs=True,
                                                rewrite_penalty_us=-5000.0)),
        ("erase_block_blocks", lambda: TierSpec(label="t", media="hdd",
                                                erase_block_blocks=512)),
        ("zone_blocks", lambda: TierSpec(label="t", media="ssd", zone_blocks=2048)),
        # A QoS contract that could never admit anything is refused when
        # it is written, not placed and then failed by the first epoch
        # (or, for a zero-depth queue, run as a tenant that rejects every
        # arrival and reports a perfect p99).
        ("queue_depth", lambda: VolumeRequest(name="vq", logical_blocks=640,
                                              queue_depth=0)),
        ("queue_depth", lambda: TenantSpec(name="t", volume="v",
                                           arrivals=PoissonArrivals(100.0, seed=1),
                                           mix=UniformOverwriteMix(64, seed=1),
                                           queue_depth=0)),
        ("iops", lambda: QosLimits(iops=-5.0)),
        ("iops_burst", lambda: QosLimits(iops=100.0, iops_burst=0.0)),
        # NaN fails every ordered comparison, so ``value <= 0`` lets it
        # through, and infinity passes it: each float is checked with
        # math.isfinite where it is built, not at its first use.
        _nonfinite("on_rate_ops_s", lambda: OnOffArrivals(NAN), "nan"),
        _nonfinite("mean_off_us", lambda: OnOffArrivals(100, mean_off_us=INF), "inf"),
        _nonfinite("mean_on_us", lambda: OnOffArrivals(100, mean_on_us=NAN), "nan"),
        _nonfinite("rate_ops_s", lambda: PoissonArrivals(INF), "inf"),
        _nonfinite("rate_ops_s", lambda: PoissonArrivals(NAN), "nan"),
        _nonfinite("iops", lambda: QosLimits(iops=NAN), "nan"),
        _nonfinite("iops_burst", lambda: QosLimits(iops=1000, iops_burst=NAN), "nan"),
        _nonfinite("rate_per_s", lambda: TokenBucket(NAN, 64.0), "nan"),
        _nonfinite("burst", lambda: TokenBucket(1000.0, INF), "inf"),
        _nonfinite("program_us_per_block",
                   lambda: TierSpec(label="t", media="ssd", program_us_per_block=NAN), "nan"),
        _nonfinite("offered_fraction",
                   lambda: VolumeRequest(name="vq", logical_blocks=640, offered_fraction=NAN),
                   "nan"),
        _nonfinite("headroom_fraction",
                   lambda: FilterScheduler(headroom_fraction=NAN), "nan"),
        _nonfinite("cp_interval_us", lambda: _engine(cp_interval_us=NAN), "nan"),
        _nonfinite("target_ops_per_cp", lambda: _engine(target_ops_per_cp=INF), "inf"),
        # A FlexVol's maps are int32: no VBN space may reach 2^31 blocks,
        # whether declared, resolved from logical_blocks, or summed over
        # tiers that each fit on their own.
        pytest.param("virtual_blocks",
                     lambda: VolumeDecl("v", 16, virtual_blocks=2**31),
                     id="virtual_blocks-declared"),
        pytest.param("virtual_blocks", lambda: VolumeDecl("v", 2**31 // 3 * 2),
                     id="virtual_blocks-resolved"),
        pytest.param("physical_blocks",
                     lambda: AggregateSpec(tiers=(
                         TierSpec(label="a", media="object", raid="none", nblocks=2**30),
                         TierSpec(label="b", media="hdd", ndata=2**14,
                                  blocks_per_disk=2**16))),
                     id="physical_blocks-summed"),
    ],
)
def test_out_of_domain_value_is_rejected_by_name(field, build):
    with pytest.raises(ValueError, match=field):
        build()
