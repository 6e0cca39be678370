"""Segment cleaning (paper section 3.3.1) of a RAID group past the first
tier of a tiered aggregate: the cleaner reads the group's live blocks
in group-local VBNs and adds the group's ``offset``, so that offset must
be the group's global base, not its base inside its tier's store; and
the copies land on the group's own tier, not the first with room."""

from __future__ import annotations

from repro.analysis.auditor import audit_sim
from repro.fs import iron
from repro.fs.segment_cleaner import clean_best_aas
from repro.tiering import volume_tier_blocks
from repro.workloads import RandomOverwriteWorkload, fill_volumes

from ..conftest import two_tier_sim


def test_cleaning_a_group_past_the_first_tier():
    sim = two_tier_sim()
    fill_volumes(sim)
    sim.run(RandomOverwriteWorkload(sim, ops_per_cp=2048, seed=3), 10)
    assert sim.store.assignments == {"hot": "fast", "big": "bulk"}

    report = clean_best_aas(sim, 1, 2)

    assert (report.aas_cleaned, report.blocks_moved) == (2, 1508)
    # The copies stay on the group's tier, where the volume is pinned.
    assert volume_tier_blocks(sim, "big") == {"fast": 0, "bulk": 20_000}
    assert audit_sim(sim).ok
    assert iron.scan(sim).clean
