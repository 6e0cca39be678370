"""Integration tests: whole-system invariants under mixed workloads."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.fs import CPBatch, PolicyKind, WaflSim
from repro.workloads import (
    FileChurnWorkload,
    OLTPWorkload,
    RandomOverwriteWorkload,
    SequentialWriteWorkload,
    fill_volumes,
)

from ..conftest import assert_scores_match, small_ssd_sim


class TestConservation:
    def test_block_conservation_random_overwrites(self):
        """Physical used blocks == live mapped blocks + pending frees,
        at every CP boundary."""
        sim = small_ssd_sim()
        wl = RandomOverwriteWorkload(sim, ops_per_cp=512, seed=0)
        it = iter(wl)
        for _ in range(10):
            sim.engine.run_cp(next(it))
            used = sim.store.nblocks - sim.store.free_count
            live = sum(int((v.l2v >= 0).sum()) for v in sim.vols.values())
            pending = sum(
                g.delayed_frees.pending_count for g in sim.store.groups
            )
            assert used == live + pending
        sim.verify_consistency()

    def test_virtual_physical_mapping_bijective(self):
        sim = small_ssd_sim()
        wl = RandomOverwriteWorkload(sim, ops_per_cp=512, seed=1)
        sim.run(wl, 8)
        all_p = []
        for v in sim.vols.values():
            mapped_v = v.l2v[v.l2v >= 0]
            p = v.physical_of(mapped_v)
            assert (p >= 0).all()
            all_p.append(p)
        all_p = np.concatenate(all_p)
        assert np.unique(all_p).size == all_p.size  # no double-mapped physical

    def test_scores_match_bitmaps_after_every_cp(self):
        sim = small_ssd_sim()
        wl = OLTPWorkload(sim, ops_per_cp=512, seed=2)
        it = iter(wl)
        for _ in range(6):
            sim.engine.run_cp(next(it))
            for g in sim.store.groups:
                assert_scores_match(g.keeper, g.metafile.bitmap)
            for v in sim.vols.values():
                assert_scores_match(v.keeper, v.metafile.bitmap)

    def test_cache_invariants_after_every_cp(self):
        sim = small_ssd_sim()
        wl = RandomOverwriteWorkload(sim, ops_per_cp=512, seed=3)
        it = iter(wl)
        for _ in range(6):
            sim.engine.run_cp(next(it))
            for g in sim.store.groups:
                g.cache.check_invariants()
            for v in sim.vols.values():
                v.cache.check_invariants()


class TestMixedWorkloads:
    def test_churn_then_overwrite_then_delete_all(self):
        sim = small_ssd_sim()
        churn = FileChurnWorkload(sim, ops_per_cp=16, max_file_blocks=256, seed=4)
        sim.run(churn, 10)
        over = RandomOverwriteWorkload(sim, ops_per_cp=512, seed=5)
        sim.run(over, 5)
        # Delete everything still mapped.
        for name, vol in sim.vols.items():
            mapped = np.flatnonzero(vol.l2v >= 0)
            sim.engine.run_cp(CPBatch(deletes={name: mapped}, ops=1))
        sim.engine.run_cp(CPBatch(ops=0))  # flush boundary
        assert sim.store.free_count == sim.store.nblocks
        for vol in sim.vols.values():
            assert vol.used_blocks == 0
        sim.verify_consistency()

    def test_all_policies_complete_same_workload(self):
        for ap in (PolicyKind.CACHE, PolicyKind.RANDOM, PolicyKind.LINEAR_SCAN):
            sim = small_ssd_sim(aggregate_policy=ap, vol_policy=ap)
            fill_volumes(sim, ops_per_cp=8192)
            wl = RandomOverwriteWorkload(sim, ops_per_cp=1024, seed=6)
            sim.run(wl, 5)
            sim.verify_consistency()

    def test_hdd_and_smr_media_run(self):
        for media, azcs in [("hdd", False), ("smr", True)]:
            tier = TierSpec(
                label=media, media=media, ndata=3, blocks_per_disk=16128,
                stripes_per_aa=2016, azcs=azcs,
            )
            sim = WaflSim.build(
                AggregateSpec(
                    tiers=(tier,),
                    volumes=(VolumeDecl("v", logical_blocks=10000),),
                ),
                seed=0,
            )
            wl = SequentialWriteWorkload(sim, ops_per_cp=2048, wrap=False)
            sim.run(wl, 3)
            sim.verify_consistency()

    def test_object_store_end_to_end(self):
        sim = WaflSim.build(
            AggregateSpec(
                tiers=(TierSpec(label="s3", media="object", raid="none",
                                nblocks=32768 * 4),),
                volumes=(VolumeDecl("v", logical_blocks=40000),),
            ),
            seed=0,
        )
        fill_volumes(sim, ops_per_cp=8192)
        wl = RandomOverwriteWorkload(sim, ops_per_cp=1024, seed=7)
        sim.run(wl, 5)
        sim.verify_consistency()
        assert sim.metrics.total_ops > 0


class TestPaperEffects:
    """Coarse end-to-end checks of the paper's directional claims."""

    def test_cache_selects_emptier_aas_than_random(self):
        def measure(policy):
            sim = small_ssd_sim(aggregate_policy=policy, vol_policy=policy, seed=9)
            fill_volumes(sim, ops_per_cp=8192)
            wl = RandomOverwriteWorkload(sim, ops_per_cp=2048, seed=10)
            sim.run(wl, 15)
            return sim.store.selected_aa_free_fractions().mean()

        cached = measure(PolicyKind.CACHE)
        randomized = measure(PolicyKind.RANDOM)
        assert cached > randomized

    def test_cache_lowers_ssd_write_amplification(self):
        def wa(policy):
            sim = small_ssd_sim(aggregate_policy=policy, vol_policy=policy, seed=11)
            fill_volumes(sim, ops_per_cp=8192)
            wl = RandomOverwriteWorkload(sim, ops_per_cp=2048, seed=12)
            sim.run(wl, 15)
            return float(np.mean([
                d.write_amplification
                for g in sim.store.groups for d in g.data_devices
            ]))

        assert wa(PolicyKind.CACHE) < wa(PolicyKind.RANDOM)


@st.composite
def cp_sequences(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["write", "delete"]),
                st.integers(0, 4000),
                st.integers(1, 400),
            ),
            min_size=1,
            max_size=12,
        )
    )


class TestPropertyIntegration:
    @given(seq=cp_sequences())
    @settings(max_examples=25, deadline=None)
    def test_any_cp_sequence_stays_consistent(self, seq):
        sim = small_ssd_sim(seed=13)
        name = "volA"
        size = sim.vols[name].spec.logical_blocks
        for kind, start, length in seq:
            ids = (np.arange(length) + start) % size
            if kind == "write":
                sim.engine.run_cp(CPBatch(writes={name: ids}, ops=length))
            else:
                sim.engine.run_cp(CPBatch(deletes={name: ids}, ops=length))
        sim.verify_consistency()
        for g in sim.store.groups:
            g.cache.check_invariants()
        used = sim.store.nblocks - sim.store.free_count
        live = sum(int((v.l2v >= 0).sum()) for v in sim.vols.values())
        assert used == live
