#!/usr/bin/env python
"""Thin provisioning on an object-store aggregate.

The paper motivates the HBPS cache with thin provisioning: "a single
aggregate [can] house a collection of FlexVol volumes whose total sizes
exceed the physical storage ... a 128 TiB FlexVol volume has a million
AAs" (section 3.3.2), so tracking every AA in a heap per volume would
cost too much memory.  This example builds a Fabric-Pool-style
aggregate backed by a natively redundant object store, provisions
volumes whose *virtual* spaces vastly exceed physical capacity, and
shows that every AA cache still uses exactly two 4 KiB pages.

Run:  python examples/thin_provisioning.py
"""

from __future__ import annotations

import numpy as np

from repro import FileChurnWorkload, WaflSim
from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.workloads import RandomOverwriteWorkload, fill_volumes


def main() -> None:
    physical_blocks = 32_768 * 24  # ~3 GiB of 4 KiB blocks
    # Each volume's virtual space is ~2x the whole aggregate: thin!
    vols = tuple(
        VolumeDecl(
            f"tenant{i}",
            logical_blocks=80_000,
            virtual_blocks=physical_blocks * 2,
        )
        for i in range(3)
    )
    sim = WaflSim.build(
        AggregateSpec(
            tiers=(TierSpec(label="s3", media="object", raid="none",
                            nblocks=physical_blocks),),
            volumes=vols,
        ),
        seed=5,
    )
    store = sim.store.members[0]  # the one object tier's linear store

    virtual_total = sum(v.nblocks for v in sim.vols.values())
    print(
        f"aggregate: {physical_blocks} physical blocks; "
        f"{virtual_total} virtual blocks provisioned "
        f"({virtual_total / physical_blocks:.1f}x overcommit)"
    )
    for name, vol in sim.vols.items():
        print(
            f"  {name}: {vol.topology.num_aas} AAs tracked by an HBPS cache "
            f"using {vol.cache.memory_bytes} bytes"
        )
    print(
        f"  physical store: {store.topology.num_aas} AAs, "
        f"cache {store.cache.memory_bytes} bytes (also HBPS — object "
        f"stores are natively redundant, so no RAID topology)"
    )

    # Exercise it: fill the tenants, churn with mixed file create/delete
    # and overwrites.
    fill_volumes(sim, ops_per_cp=16_384)
    print(f"\nafter fill: utilization {sim.utilization:.1%}")

    churn = FileChurnWorkload(sim, ops_per_cp=48, min_file_blocks=16,
                              max_file_blocks=1_024, seed=9)
    sim.run(churn, 15)
    over = RandomOverwriteWorkload(sim, ops_per_cp=8_192, seed=10)
    sim.run(over, 15)

    m = sim.metrics
    print(f"ran {len(m.cps)} CPs; metafile blocks dirtied/op: "
          f"{m.metafile_blocks_per_op:.4f}")
    for name, vol in sim.vols.items():
        sel = vol.selected_aa_free_fractions()
        used = vol.used_blocks
        print(
            f"  {name}: {used} virtual blocks live "
            f"({used / vol.nblocks:.1%} of virtual space), "
            f"selected-AA free {sel.mean():.1%}"
        )

    sim.verify_consistency()
    print("\nconsistency verified ✓")
    print("memory for all four AA caches combined: "
          f"{sum(v.cache.memory_bytes for v in sim.vols.values()) + store.cache.memory_bytes} bytes")


if __name__ == "__main__":
    main()
