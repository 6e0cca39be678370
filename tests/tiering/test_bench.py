"""Tier drill determinism: the mixed SSD+HDD+SMR demo is a pure
function of (quick, seed) — same-seed runs are byte-identical — and
its payload carries the acceptance assertions (chooser placements,
migration conservation, clean audit and Iron scan)."""

from __future__ import annotations

import json

from repro.bench import runner
from repro.tiering import build_tiered_sim, tier_demo_spec


def tier_metrics(seed: int) -> dict:
    return runner.run_unit(runner.UnitSpec("tier", "tiered", True, seed))["metrics"]


class TestDemoSpec:
    def test_quick_and_full_share_shape(self):
        for quick in (True, False):
            spec = tier_demo_spec(quick)
            assert [t.label for t in spec.tiers] == ["flash", "disk", "smr"]
            assert {v.workload for v in spec.volumes} == {
                "oltp", "sequential", "mixed",
            }

    def test_same_seed_builds_identical_sims(self):
        a = build_tiered_sim(quick=True, seed=55)
        b = build_tiered_sim(quick=True, seed=55)
        assert a.store.nblocks == b.store.nblocks
        for ga, gb in zip(a.store.groups, b.store.groups):
            assert (ga.metafile.bitmap.raw_bytes == gb.metafile.bitmap.raw_bytes).all()


class TestReplayIdentity:
    def test_same_seed_same_digest(self):
        a = tier_metrics(55)
        b = tier_metrics(55)
        assert a["digest"] == b["digest"]
        # Byte-identical payloads, not merely equal digests.
        ka = json.dumps({k: v for k, v in a.items()}, sort_keys=True)
        kb = json.dumps({k: v for k, v in b.items()}, sort_keys=True)
        assert ka == kb

    def test_different_seed_different_digest(self):
        a = tier_metrics(55)
        b = tier_metrics(56)
        assert a["digest"] != b["digest"]

    def test_payload_carries_the_acceptance_claims(self):
        m = tier_metrics(55)
        assert m["placements"]["oltp0"] == "flash"
        assert m["placements"]["stream0"] == "smr"
        # The misplacement was corrected by the rebalance pass.
        assert m["placements_final"]["oltp0"] == "flash"
        assert m["audit_ok"] and m["iron_clean"]
        for rep in m["migrations"]:
            assert rep["copied"] == rep["freed"] == rep["used"]
