"""The AZCS/SMR write path and delayed-free grouping read run boundaries
of sorted input (:func:`repro.common.arrayops.run_starts`) instead of
calling ``np.unique``.  The ``np.unique`` versions they replaced are kept
here, verbatim, as oracles: every output must match them exactly, and
the precondition the new code relies on — strictly increasing DBNs into
``azcs_expand`` and ``Device.write_blocks`` — is pinned on a live
3-tier aggregate.

The free and write paths route by one sort and slice the same way:
stores cut a sorted batch of a CP's frees or writes at their owners'
bounds, RAID groups trim each disk with its slice of the sorted frees.  The per-owner boolean-mask versions they
replaced are kept below as oracles too, with the two gathers the CP path
now skips."""

from __future__ import annotations

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fs.aggregate as aggregate_mod
from repro.bitmap import BitmapMetafile
from repro.common.arrayops import run_starts
from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.common.constants import AZCS_DATA_BLOCKS, AZCS_REGION_BLOCKS
from repro.core import DelayedFreeLog
from repro.devices import SMRConfig, SMRDrive
from repro.devices.base import Device, MediaType
from repro.fs import WaflSim, azcs_expand
from repro.fs.aggregate import Aggregate, RAIDGroupRuntime, RAIDStore, merge_reports
from repro.raid.geometry import RAIDGeometry
from repro.raid.parity import analyze_raid_writes
from repro.workloads import (
    FileChurnWorkload,
    RandomOverwriteWorkload,
    SequentialWriteWorkload,
    fill_volumes,
)

from ..conftest import trim_committed

# ----------------------------------------------------------------------
# Oracles: the np.unique-based code the run primitive replaced.


def azcs_expand_oracle(dbns):
    dbns = np.asarray(dbns, dtype=np.int64)
    if dbns.size == 0:
        return dbns
    lbas = dbns + dbns // AZCS_DATA_BLOCKS
    regions = np.unique(dbns // AZCS_DATA_BLOCKS)
    checksum_lbas = regions * AZCS_REGION_BLOCKS + (AZCS_REGION_BLOCKS - 1)
    return np.unique(np.concatenate((lbas, checksum_lbas)))


def aa_segments_oracle(dbns, stripes_per_aa):
    aa_ids = dbns // stripes_per_aa
    boundaries = np.flatnonzero(np.diff(aa_ids) != 0) + 1
    return [azcs_expand_oracle(seg) for seg in np.split(dbns, boundaries)]


class OracleSMRDrive(SMRDrive):
    def _write_cost(self, dbns):
        c = self.config
        starts_mask = np.concatenate(([True], np.diff(dbns) != 1))
        chain_starts = dbns[starts_mask]
        n_chains = int(chain_starts.size)
        zones = chain_starts // c.zone_blocks
        rewrites = int(np.count_nonzero(chain_starts <= self._high_water[zones]))
        self.rewrites += rewrites
        all_zones = dbns // c.zone_blocks
        uz, idx = np.unique(all_zones, return_index=True)
        run_ends = np.append(idx[1:], dbns.size) - 1
        zone_max = dbns[run_ends]
        np.maximum.at(self._high_water, uz, zone_max)
        self.stats.seeks += n_chains
        self.stats.device_blocks_written += int(dbns.size)
        return (
            n_chains * c.seek_us
            + dbns.size * c.transfer_us_per_block
            + rewrites * c.rewrite_penalty_us
        )


class OracleDelayedFreeLog(DelayedFreeLog):
    def _ensure_grouped(self):
        if not self._staged:
            return
        vbns = self._staged[0] if len(self._staged) == 1 else np.concatenate(self._staged)
        self._staged = []
        blocks = vbns // self.bits_per_block
        order = np.argsort(blocks, kind="stable")
        sorted_blocks = blocks[order]
        sorted_vbns = vbns[order]
        uniq, starts = np.unique(sorted_blocks, return_index=True)
        bounds = np.append(starts, sorted_blocks.size)
        for i, blk in enumerate(uniq.tolist()):
            chunk = sorted_vbns[bounds[i] : bounds[i + 1]]
            self._per_block.setdefault(blk, []).append(chunk)


# ----------------------------------------------------------------------
# Inputs: strictly increasing DBNs built from runs, so runs straddle
# region / zone / AA boundaries as often as not.


@st.composite
def increasing_dbns(draw, limit):
    runs = draw(st.lists(st.tuples(st.integers(0, limit - 1), st.integers(1, 140)), max_size=6))
    dbns: set[int] = set()
    for start, length in runs:
        dbns.update(range(start, min(start + length, limit)))
    return np.array(sorted(dbns), dtype=np.int64)


class TestRunStarts:
    @pytest.mark.parametrize(
        "keys, expected",
        [
            ([], []),
            ([7], [True]),
            ([4, 4, 4, 4], [True, False, False, False]),
            ([1, 2, 5, 9], [True, True, True, True]),
            ([0, 0, 3, 3, 3, 8], [True, False, True, False, False, True]),
        ],
        ids=["empty", "single", "all-equal", "all-distinct", "runs"],
    )
    def test_mask(self, keys, expected):
        mask = run_starts(np.array(keys, dtype=np.int64))
        assert mask.dtype == bool
        assert mask.tolist() == expected


@given(dbns=increasing_dbns(1000))
@settings(max_examples=200)
def test_azcs_expand_matches_oracle(dbns):
    got = azcs_expand(dbns)
    want = azcs_expand_oracle(dbns)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


@given(dbns=increasing_dbns(4032), stripes_per_aa=st.sampled_from([64, 504]))
@settings(max_examples=100)
def test_aa_segmentation_matches_oracle(dbns, stripes_per_aa):
    tier = TierSpec(label="smr", media="smr", ndata=3, blocks_per_disk=4032,
                    stripes_per_aa=stripes_per_aa, azcs=True)
    group = RAIDGroupRuntime(tier, offset=0, seed=0)
    writes: list[np.ndarray] = []

    class Recorder:
        def write_blocks(self, lbas):
            writes.append(lbas)
            return float(lbas.size)

    busy = group._issue_writes(Recorder(), dbns)
    want = aa_segments_oracle(dbns, stripes_per_aa) if dbns.size else []
    assert len(writes) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(writes, want))
    assert busy == sum(float(w.size) for w in want)


@given(
    zone_blocks=st.integers(1, 48),
    calls=st.lists(increasing_dbns(600), min_size=1, max_size=5),
)
@settings(max_examples=150)
def test_smr_write_cost_matches_oracle(zone_blocks, calls):
    cfg = SMRConfig(zone_blocks=zone_blocks)
    new, old = SMRDrive(600, cfg), OracleSMRDrive(600, cfg)
    for dbns in calls:
        assert new.write_blocks(dbns) == old.write_blocks(dbns)
        assert new.rewrites == old.rewrites
        assert new.stats == old.stats  # seeks, blocks written, busy_us
        assert np.array_equal(new._high_water, old._high_water)


@given(
    vbns=st.lists(st.integers(0, 4095), unique=True, min_size=1, max_size=400),
    cuts=st.lists(st.integers(0, 400), max_size=5),
    group_after=st.lists(st.booleans(), min_size=6, max_size=6),
)
@settings(max_examples=150)
def test_delayed_free_grouping_matches_oracle(vbns, cuts, group_after):
    batches = np.split(np.array(vbns, dtype=np.int64), sorted(c % (len(vbns) + 1) for c in cuts))
    new, old = DelayedFreeLog(bits_per_block=256), OracleDelayedFreeLog(bits_per_block=256)
    for batch, group in zip(batches, group_after):
        new.add(batch)
        old.add(batch)
        if group:
            new._ensure_grouped()
            old._ensure_grouped()
    new._ensure_grouped()
    old._ensure_grouped()
    assert new._per_block.keys() == old._per_block.keys()
    for blk, chunks in old._per_block.items():
        assert len(new._per_block[blk]) == len(chunks)
        assert all(np.array_equal(a, b) for a, b in zip(new._per_block[blk], chunks))
    metafiles = [BitmapMetafile(4096, bits_per_block=256) for _ in range(2)]
    for mf in metafiles:
        mf.allocate(np.array(vbns))
    assert np.array_equal(new.apply_best(metafiles[0], 3), old.apply_best(metafiles[1], 3))


# ----------------------------------------------------------------------
# The precondition: every azcs_expand / Device.write_blocks input of a
# live 3-tier aggregate (perfbench churn_tiered's shape at quarter size)
# is strictly increasing.  Checked here, not on the hot path.


def test_write_path_inputs_are_strictly_increasing(monkeypatch):
    seen = {"azcs": 0, "device": 0}

    def strictly_increasing(name, dbns):
        dbns = np.asarray(dbns)
        assert bool(np.all(np.diff(dbns) > 0)), f"{name} input not strictly increasing"
        seen[name] += 1

    real_expand, real_write = aggregate_mod.azcs_expand, Device.write_blocks

    def expand(dbns):
        strictly_increasing("azcs", dbns)
        return real_expand(dbns)

    def write_blocks(self, dbns):
        strictly_increasing("device", dbns)
        return real_write(self, dbns)

    spec = AggregateSpec(
        tiers=(
            TierSpec(label="flash", media="ssd", raid="mirror", ndata=4, blocks_per_disk=16_384),
            TierSpec(label="disk", media="hdd", raid="raid4", ndata=8, blocks_per_disk=16_384),
            TierSpec(label="smr", media="smr", raid="raid_dp", ndata=8, blocks_per_disk=16_128,
                     stripes_per_aa=2016, zone_blocks=2048, azcs=True),
        ),
        volumes=(
            VolumeDecl("oltp0", logical_blocks=40_960, workload="oltp"),
            VolumeDecl("stream0", logical_blocks=81_920, workload="sequential"),
            VolumeDecl("scratch0", logical_blocks=81_920, workload="mixed"),
        ),
    )
    sim = WaflSim.build(spec, seed=55)
    monkeypatch.setattr(aggregate_mod, "azcs_expand", expand)
    monkeypatch.setattr(Device, "write_blocks", write_blocks)
    fill_volumes(sim, ops_per_cp=16384, seed=56)
    generators = (
        FileChurnWorkload(sim, ops_per_cp=32, max_file_blocks=1024, seed=1),
        SequentialWriteWorkload(sim, ops_per_cp=4096, blocks_per_op=4, seed=2),
        RandomOverwriteWorkload(sim, ops_per_cp=4096, blocks_per_op=2, seed=3),
    )
    for i in range(6):
        sim.engine.run_cp(generators[i % 3].next_batch())
    assert seen["azcs"] > 0 and seen["device"] > seen["azcs"]


# ----------------------------------------------------------------------
# Oracles: the mask-routed free path the sort-and-slice one replaced.


class MaskRoutedRAIDStore(RAIDStore):
    def group_of(self, vbns):
        return self._bounds.searchsorted(vbns, side="right") - 1

    def log_free(self, vbns):
        vbns = np.asarray(vbns, dtype=np.int64)
        if vbns.size == 0:
            return
        if len(self.groups) == 1:
            self.groups[0].delayed_frees.add(vbns - self.groups[0].offset)
            return
        gids = self.group_of(vbns)
        for gi, g in enumerate(self.groups):
            mask = gids == gi
            if mask.any():
                g.delayed_frees.add(vbns[mask] - g.offset)


class MaskRoutedAggregate(Aggregate):
    def tier_index_of(self, vbns):
        vbns = np.asarray(vbns, dtype=np.int64)
        return np.searchsorted([*self.bases, self.nblocks], vbns, side="right") - 1

    def log_free(self, vbns):
        vbns = np.asarray(vbns, dtype=np.int64)
        if vbns.size == 0:
            return
        if len(self.members) == 1:
            self.members[0].log_free(vbns)
            return
        idx = self.tier_index_of(vbns)
        for i, member in enumerate(self.members):
            mask = idx == i
            if mask.any():
                member.log_free(vbns[mask])

    def cp_boundary(self, written, reads):
        """A CP's writes routed by mask, in allocation order (reads are
        not routed here)."""
        idx = self.tier_index_of(written)
        return merge_reports([member.cp_boundary(written[idx == i], 0)
                              for i, member in enumerate(self.members)])


def mask_trim(self, freed):
    if freed.size and self.media is MediaType.SSD:
        disks = freed // self.geometry.blocks_per_disk  # the removed disk_of
        dbns = freed % self.geometry.blocks_per_disk  # the old dbn_of
        for d, dev in enumerate(self.data_devices):
            if not dev.failed:
                dev.trim(dbns[disks == d])


# ----------------------------------------------------------------------
# Routing: per owner, the VBNs logged (and whether the owner was called
# at all) match mask routing, with VBNs on every owner bound.


def _edge_vbns(draw, bounds):
    """A free batch over ``[0, bounds[-1])`` dense in every ``bound - 1``
    and ``bound``, restricted to a drawn subset of owners (so some
    owners get nothing)."""
    edges = sorted({v for b in bounds for v in (b - 1, b) if 0 <= v < bounds[-1]})
    vbns = draw(st.lists(st.one_of(st.sampled_from(edges), st.integers(0, bounds[-1] - 1)),
                         min_size=1, max_size=40))
    keep = draw(st.lists(st.booleans(), min_size=len(bounds) - 1, max_size=len(bounds) - 1))
    owner = np.searchsorted(bounds, vbns, side="right") - 1
    return np.array([v for v, o in zip(vbns, owner) if keep[o]], dtype=np.int64)


def _hdd_tier(label, ndata, n_groups=1):
    return TierSpec(label=label, media="hdd", ndata=ndata, n_groups=n_groups,
                    blocks_per_disk=512, stripes_per_aa=64)


@given(data=st.data(), n_groups=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_raid_store_routing_matches_mask_oracle(data, n_groups):
    tier = _hdd_tier("h", 2, n_groups)
    new, old = RAIDStore(tier, seed=0), MaskRoutedRAIDStore(tier, seed=0)
    vbns = _edge_vbns(data.draw, new._bounds.tolist())
    new.log_free(vbns)
    old.log_free(vbns)
    for g_new, g_old in zip(new.groups, old.groups):
        assert len(g_new.delayed_frees._staged) == len(g_old.delayed_frees._staged)
        assert np.array_equal(g_new.delayed_frees.pending_vbns(),
                              g_old.delayed_frees.pending_vbns())


@given(data=st.data(), kinds=st.lists(st.sampled_from(["raid", "object"]), min_size=1, max_size=3),
       entry=st.sampled_from(["log_free", "cp_boundary"]))
@settings(max_examples=80, deadline=None)
def test_tiered_store_routing_matches_mask_oracle(data, kinds, entry):
    """A CP's frees (``log_free``) and its writes (``cp_boundary``) reach
    the members the mask version routes them to."""
    tiers = [
        _hdd_tier(f"t{i}", i + 1) if kind == "raid" else
        TierSpec(label=f"t{i}", media="object", raid="none", nblocks=512 * (i + 1),
                 blocks_per_aa=64)
        for i, kind in enumerate(kinds)
    ]
    spec = AggregateSpec(tiers=tuple(tiers), volumes=())
    stores = [cls(spec, seed=0) for cls in (Aggregate, MaskRoutedAggregate)]
    calls: list[list[list[np.ndarray]]] = []
    for store in stores:
        calls.append([[] for _ in store.members])
        for member, log in zip(store.members, calls[-1]):
            if entry == "log_free":
                member.log_free = log.append
            else:
                member.cp_boundary = lambda w, r, log=log: (
                    log.append(w), aggregate_mod.StoreCPReport())[1]
    vbns = _edge_vbns(data.draw, [*stores[0].bases, stores[0].nblocks])
    if entry == "cp_boundary":
        # A CP writes each VBN once, in allocation (not VBN) order.
        vbns = np.unique(vbns)
        vbns = vbns[np.random.default_rng(data.draw(st.integers(0, 99))).permutation(vbns.size)]
    for store in stores:
        if entry == "log_free":
            store.log_free(vbns)
        else:
            store.cp_boundary(vbns, 0)
    new, old = calls
    assert [len(c) for c in new] == [len(c) for c in old]  # no free call for an empty owner
    if entry == "cp_boundary":
        # Every member's boundary runs once a CP, with what it was written.
        assert [len(c) for c in new] == [1] * len(kinds)
    for got, want in zip(new, old):
        assert all(np.array_equal(np.sort(a), np.sort(b)) for a, b in zip(got, want))


# ----------------------------------------------------------------------
# Trims: after each CP's post-commit step, every device's trim calls (as
# sets) and its FTL state match the mask version.


def _ssd_state(dev):
    return (
        dev._valid.tobytes(), dev._valid_per_eb.tolist(), dev.erase_counts.tolist(),
        [(eb, s.valid_at_open, s.credits) for eb, s in dev._open.items()],
        dev.relocated_blocks, dev.stats,
    )


@given(
    data=st.data(),
    raid=st.sampled_from(["raid4", "raid_dp"]),
    ndata=st.integers(1, 3),
    n_groups=st.integers(1, 2),
    fail=st.one_of(st.none(), st.integers(0, 2)),
)
@settings(max_examples=25, deadline=None)
def test_trims_match_mask_oracle(data, raid, ndata, n_groups, fail):
    tier = TierSpec(label="s", media="ssd", raid=raid, ndata=ndata, n_groups=n_groups,
                    blocks_per_disk=2048, stripes_per_aa=256, erase_block_blocks=256)
    stores = [RAIDStore(tier, seed=0) for _ in range(2)]
    trims: list[list[list[np.ndarray]]] = []
    for store in stores:
        trims.append([])
        for dev in (d for g in store.groups for d in g.devices):
            log: list[np.ndarray] = []
            trims[-1].append(log)
            dev.trim = lambda dbns, real=dev.trim, log=log: (log.append(np.sort(dbns)), real(dbns))
    for g in stores[1].groups:
        g.trim = types.MethodType(mask_trim, g)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="rng"))
    live = np.empty(0, dtype=np.int64)
    for cp in range(3):
        if cp == 1 and fail is not None and fail < ndata:
            for store in stores:
                store.groups[0].fail_disk(fail)
        n = data.draw(st.integers(0, 3000), label="allocate")
        frac = data.draw(st.floats(0, 1), label="free fraction")
        frees = live[rng.random(live.size) < frac]
        got = [store.allocate(n) for store in stores]
        for store in stores:
            store.log_free(frees)
        live = np.concatenate([np.setdiff1d(live, frees), got[0]])
        for store, written in zip(stores, got):
            trim_committed(store, store.cp_boundary(written, 0))
        new, old = trims
        assert [len(t) for t in new] == [len(t) for t in old]
        for got_t, want_t in zip(new, old):
            assert all(np.array_equal(a, b) for a, b in zip(got_t, want_t))
        for dev_new, dev_old in zip(*([d for g in s.groups for d in g.devices] for s in stores)):
            assert _ssd_state(dev_new) == _ssd_state(dev_old)


# ----------------------------------------------------------------------
# One division: the DBN is the remainder, exactly, at every edge.


@pytest.mark.parametrize("bpd", [4096, 64512, 131072])
def test_dbn_of_equals_the_remainder(bpd):
    geom = RAIDGeometry(4, 1, bpd)
    vbns = np.array([0, bpd - 1, bpd, bpd + 1, 2 * bpd - 1, geom.data_blocks - 1],
                    dtype=np.int64)
    assert np.array_equal(geom.dbn_of(vbns), vbns % bpd)
    stats = analyze_raid_writes(geom, vbns[::-1])
    assert np.array_equal(stats.sorted_dbns, np.sort(vbns) % bpd)
    assert np.array_equal(stats.sorted_disks, np.sort(vbns) // bpd)


# ----------------------------------------------------------------------
# The snapshot-mask skip: a volume whose snapshots were all deleted is
# indistinguishable, to the CP path, from one that never had any.


def test_all_snapshots_deleted_stages_like_never_snapshotted():
    spec = AggregateSpec(
        tiers=(TierSpec(label="s", media="ssd", ndata=3, blocks_per_disk=8192),),
        volumes=(VolumeDecl("v", logical_blocks=8192),),
    )
    sims = [WaflSim.build(spec, seed=5) for _ in range(2)]
    for sim in sims:
        fill_volumes(sim, ops_per_cp=2048, seed=6)
    snapped = sims[0].vols["v"]
    for name in ("a", "b"):
        snapped.create_snapshot(name)
    snapped.delete_snapshot("a")
    snapped.delete_snapshot("b")
    assert snapped.pin_mask is None
    ids = np.arange(0, 8192, 3, dtype=np.int64)
    gone = np.arange(1, 8192, 5, dtype=np.int64)
    staged = [(vol.stage_writes(ids), vol.stage_deletes(gone))
              for vol in (sim.vols["v"] for sim in sims)]
    (writes_a, deletes_a), (writes_b, deletes_b) = staged
    assert all(np.array_equal(a, b) for a, b in zip(writes_a, writes_b))
    assert np.array_equal(deletes_a, deletes_b)
