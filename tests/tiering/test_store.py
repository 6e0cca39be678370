"""Multi-tier aggregate unit tests: global VBN composition, per-tier
capacity accounting, tier-pinned allocation, and the workload chooser."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.common.errors import BitmapError, GeometryError, TieringError
from repro.fs import Aggregate, Tier, WaflSim, choose_tier, media_role

from ..conftest import NO_VBNS


def two_tier_spec(**vol_kw) -> AggregateSpec:
    return AggregateSpec(
        tiers=(
            TierSpec(label="flash", media="ssd", raid="mirror", ndata=4,
                     blocks_per_disk=4096),
            TierSpec(label="disk", media="hdd", raid="raid4", ndata=6,
                     blocks_per_disk=4096),
        ),
        volumes=tuple(vol_kw.get("volumes", (
            VolumeDecl("a", logical_blocks=4096, workload="oltp"),
            VolumeDecl("b", logical_blocks=8192, workload="sequential"),
        ))),
    )


def two_tier_store() -> Aggregate:
    return WaflSim.build(two_tier_spec(), seed=1).store


class TestComposition:
    def test_build_returns_tiered_store(self):
        sim = WaflSim.build(two_tier_spec(), seed=1)
        store = sim.store
        assert isinstance(store, Aggregate)
        assert store.labels == ["flash", "disk"]
        # Mirror: 4 data + 4 copies -> 4*4096 usable; RAID4: 6*4096.
        assert store.nblocks == 4 * 4096 + 6 * 4096
        assert store.members[0].nblocks == 4 * 4096
        assert store.bases == [0, 4 * 4096]

    def test_log_free_routes_global_vbns_to_their_tier(self):
        store = two_tier_store()
        split = store.bases[1]
        store.log_free(np.array([store.nblocks - 1, split, split - 1, 0]))
        pending = [
            g.delayed_frees.pending_vbns().tolist()
            for g in store.groups
        ]
        # Group-local: the disk tier's group logs its own VBNs from 0.
        assert pending == [[0, split - 1], [0, store.nblocks - split - 1]]

    @pytest.mark.parametrize("past_end", [False, True], ids=["negative", "past-end"])
    def test_log_free_refuses_vbns_outside_the_aggregate(self, past_end):
        store = two_tier_store()
        fast = store.allocate_in(["flash"], 64)
        store.cp_boundary(fast, 0)
        bad = store.nblocks + 5 if past_end else -1
        with pytest.raises(BitmapError, match=rf"\[{bad}\] outside .* \[0, {store.nblocks}\)"):
            store.log_free(np.append(fast, bad))
        assert all(g.delayed_frees.pending_count == 0 for g in store.groups)
        assert store.cp_boundary(NO_VBNS, 0).blocks_freed == 0

    def test_allocate_in_stays_inside_the_tier(self):
        store = two_tier_store()
        split = store.bases[1]
        fast = store.allocate_in(["flash"], 128)
        slow = store.allocate_in(["disk"], 128)
        assert (fast < split).all()
        assert (slow >= split).all()
        usage = store.tier_usage()
        assert usage["flash"]["used"] == 128
        assert usage["disk"]["used"] == 128
        assert usage["flash"]["free"] == usage["flash"]["nblocks"] - 128

    def test_unknown_tier_label_raises(self):
        store = two_tier_store()
        with pytest.raises(TieringError, match="unknown tier"):
            store.allocate_in(["tape"], 1)

    def test_physical_instances_are_base_shifted(self):
        store = two_tier_store()
        bases = [base for _, _, base in store.physical_instances()]
        assert bases[0] == 0
        # The disk tier's groups start at the flash member's span.
        assert store.bases[1] in bases

    def test_free_blocks_return_to_their_tier(self):
        store = two_tier_store()
        fast = store.allocate_in(["flash"], 64)
        slow = store.allocate_in(["disk"], 64)
        store.log_free(np.concatenate([fast, slow]))
        store.cp_boundary(np.concatenate([fast, slow]), 0)
        usage = store.tier_usage()
        assert usage["flash"]["used"] == 0
        assert usage["disk"]["used"] == 0


class TestCapacity:
    def test_overcommit_names_per_tier_capacity(self):
        spec = two_tier_spec(volumes=(
            VolumeDecl("huge", logical_blocks=10 * 4096 + 1),
        ))
        with pytest.raises(GeometryError, match="per-tier capacity"):
            WaflSim.build(spec, seed=1)

    def test_exact_fit_is_accepted(self):
        spec = two_tier_spec(volumes=(
            VolumeDecl("fits", logical_blocks=10 * 4096),
        ))
        sim = WaflSim.build(spec, seed=1)
        assert sim.store.nblocks == 10 * 4096


class TestChooser:
    TIERS = (
        TierSpec(label="flash", media="ssd", raid="mirror", ndata=4,
                 blocks_per_disk=4096),
        TierSpec(label="disk", media="hdd", raid="raid4", ndata=6,
                 blocks_per_disk=4096),
        TierSpec(label="smr", media="smr", raid="raid_dp", ndata=8,
                 blocks_per_disk=4032, stripes_per_aa=504),
    )

    def test_oltp_prefers_mirrored_flash(self):
        assert choose_tier(self.TIERS, "oltp") == "flash"

    def test_sequential_prefers_parity_smr(self):
        assert choose_tier(self.TIERS, "sequential") == "smr"

    def test_archive_prefers_the_slowest_media(self):
        assert choose_tier(self.TIERS, "archive") == "smr"

    def test_media_roles(self):
        assert media_role("ssd") is Tier.FAST
        assert media_role("hdd") is Tier.CAPACITY
        assert media_role("object") is Tier.ARCHIVE
        assert media_role("smr") is Tier.CAPACITY


class TestStaticPolicy:
    """Per-volume pinning is the aggregate's own placement."""

    def test_assignments_route_and_reassign(self):
        store = two_tier_store()
        assert store.tier_of("a") == "flash"
        assert store.tier_of("other") == "disk"  # undeclared: the largest tier
        store.assign("a", "disk")
        assert store.tier_of("a") == "disk"
        with pytest.raises(TieringError, match="unknown tier 'tape'"):
            store.assign("a", "tape")
        assert store.tier_of("a") == "disk"
        # A pinned volume fills its tier first.
        assert (store.place("a", 64) >= store.bases[1]).all()

    def test_build_attaches_chooser_assignments(self):
        store = two_tier_store()
        assert store.tier_policy is None
        assert store.tier_of("a") == "flash"   # oltp -> mirrored SSD
        assert store.tier_of("b") == "disk"    # sequential, no SMR tier
