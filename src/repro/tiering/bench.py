"""The heterogeneous demo aggregate of the ``tier`` drill: one mixed
SSD + HDD + SMR aggregate on which the chooser places an OLTP volume on
the mirrored-SSD tier and a sequential-churn volume on the RAID-DP SMR
tier (the drill itself is ``repro.bench.drills``' ``tier/tiered`` row).
"""

from __future__ import annotations

from ..common.config import AggregateSpec, TierSpec, VolumeDecl
from ..fs.filesystem import WaflSim

__all__ = ["tier_demo_spec", "build_tiered_sim"]


def tier_demo_spec(quick: bool = False) -> AggregateSpec:
    """The demo aggregate: mirrored SSD + RAID-4 HDD + RAID-DP SMR
    tiers, with one volume per workload personality."""
    bpd = 4096 if quick else 16384
    lb = 4096 if quick else 16384
    return AggregateSpec(
        tiers=(
            TierSpec(
                label="flash", media="ssd", raid="mirror",
                ndata=4, blocks_per_disk=bpd,
            ),
            # Widest tier: undeclared ("mixed") volumes land on the
            # largest tier by capacity, so the demo uses all three.
            TierSpec(
                label="disk", media="hdd", raid="raid4",
                ndata=8, blocks_per_disk=bpd,
            ),
            # SMR disks are AZCS-aligned: sizes are multiples of the
            # 504-stripe AZCS/topology alignment unit.
            TierSpec(
                label="smr", media="smr", raid="raid_dp",
                ndata=8, blocks_per_disk=4032 if quick else 16128,
                stripes_per_aa=504 if quick else 2016,
                zone_blocks=2048, azcs=True,
            ),
        ),
        volumes=(
            VolumeDecl("oltp0", logical_blocks=lb, workload="oltp"),
            VolumeDecl("stream0", logical_blocks=2 * lb, workload="sequential"),
            VolumeDecl("scratch0", logical_blocks=lb, workload="mixed"),
        ),
    )


def build_tiered_sim(*, quick: bool = False, seed: int = 55) -> WaflSim:
    """Build the demo's tiered :class:`WaflSim` (same spec + seed =>
    byte-identical aggregate)."""
    return WaflSim.build(tier_demo_spec(quick), seed=seed)
