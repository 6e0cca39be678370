"""Segment cleaning (paper section 3.3.1) of a RAID group past the first
tier of a tiered aggregate: the cleaner reads the group's live blocks
in group-local VBNs and adds the group's ``offset``, so that offset must
be the group's global base, not its base inside its tier's store."""

from __future__ import annotations

from repro.analysis.auditor import audit_sim
from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.core.segment_cleaner import clean_best_aas
from repro.fs import WaflSim, iron
from repro.workloads import RandomOverwriteWorkload, fill_volumes


def test_cleaning_a_group_past_the_first_tier():
    spec = AggregateSpec(
        tiers=(
            TierSpec(label="fast", media="ssd", ndata=2, blocks_per_disk=4096,
                     stripes_per_aa=512),
            TierSpec(label="bulk", media="ssd", ndata=4, blocks_per_disk=8192,
                     stripes_per_aa=512),
        ),
        volumes=(
            VolumeDecl("hot", logical_blocks=3000, workload="oltp"),
            VolumeDecl("big", logical_blocks=20_000, workload="mixed"),
        ),
    )
    sim = WaflSim.build(spec, seed=5)
    fill_volumes(sim)
    sim.run(RandomOverwriteWorkload(sim, ops_per_cp=2048, seed=3), 10)
    assert sim.store.tier_policy.assignments == {"hot": "fast", "big": "bulk"}

    report = clean_best_aas(sim, 1, 2)

    assert (report.aas_cleaned, report.blocks_moved, report.map_updates) == (2, 1508, 1508)
    assert audit_sim(sim).ok
    assert iron.scan(sim).clean
