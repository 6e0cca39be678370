#!/usr/bin/env python
"""Flash Pool: a mixed SSD+HDD aggregate with hot/cold tiering.

"A Flash Pool aggregate is composed of one or more RAID groups of SSDs
together with several RAID groups of HDDs ... such configurations
store the 'hot' (often-accessed) data and metadata in the faster media
while using the slower media for the rest." (paper section 2.1)

This example builds one, runs a skewed overwrite workload, and shows
where the blocks land and what each tier's devices cost.

Run:  python examples/flash_pool.py
"""

from __future__ import annotations

from repro import WaflSim
from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.tiering import FlashPoolPolicy
from repro.workloads import RandomOverwriteWorkload, fill_volumes


def main() -> None:
    # A Flash Pool is a two-tier aggregate like any other: one SSD tier
    # and a two-group HDD tier, each a RAID store at its base in one
    # VBN space.  Build it from its spec, then swap the per-volume tier
    # pinning for the hot/cold placement policy.
    sim = WaflSim.build(
        AggregateSpec(
            tiers=(
                TierSpec(label="ssd", media="ssd", ndata=3, blocks_per_disk=65_536),
                TierSpec(label="hdd", media="hdd", n_groups=2, ndata=4,
                         blocks_per_disk=131_072),
            ),
            volumes=(VolumeDecl("db", logical_blocks=400_000),),
        ),
        seed=17,
    )
    sim.store.tier_policy = FlashPoolPolicy()
    print(f"Flash Pool aggregate: {[g.media.value for g in sim.store.groups]}")

    # Cold fill: first writes go to the capacity (HDD) tier.
    fill_volumes(sim, ops_per_cp=16_384)
    ssd = sim.store.groups[0]
    print(f"\nafter fill: SSD tier holds "
          f"{ssd.metafile.bitmap.allocated_count} blocks (expect 0)")

    # Hot churn over 10% of the data: overwrites go to the SSD tier.
    hot = RandomOverwriteWorkload(sim, ops_per_cp=8_192, blocks_per_op=2,
                                  working_set_fraction=0.10, seed=4)
    sim.run(hot, 15)
    ssd_used = ssd.metafile.bitmap.allocated_count
    hdd_used = sum(g.metafile.bitmap.allocated_count
                   for g in sim.store.groups[1:])
    print(f"after hot churn: SSD tier {ssd_used} blocks, "
          f"HDD tier {hdd_used} blocks")

    busy = {
        "ssd": sum(d.stats.busy_us for d in ssd.devices) / 1e6,
        "hdd": sum(d.stats.busy_us
                   for g in sim.store.groups[1:] for d in g.devices) / 1e6,
    }
    print(f"device busy seconds: SSD tier {busy['ssd']:.2f}s, "
          f"HDD tier {busy['hdd']:.2f}s")
    print("the hot working set is absorbed by the SSD tier; the HDD tier "
          "only paid for the cold fill")

    sim.verify_consistency()
    print("\nconsistency verified ✓")


if __name__ == "__main__":
    main()
