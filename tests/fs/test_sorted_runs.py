"""The AZCS/SMR write path and delayed-free grouping read run boundaries
of sorted input (:func:`repro.common.arrayops.run_starts`) instead of
calling ``np.unique``.  The ``np.unique`` versions they replaced are kept
here, verbatim, as oracles: every output must match them exactly, and
the precondition the new code relies on — strictly increasing DBNs into
``azcs_expand`` and ``Device.write_blocks`` — is pinned on a live
3-tier aggregate."""

from __future__ import annotations

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
from repro.devices.base import Device
from repro.fs import WaflSim, azcs_expand
from repro.fs.aggregate import RAIDGroupRuntime
from repro.workloads import (
    FileChurnWorkload,
    RandomOverwriteWorkload,
    SequentialWriteWorkload,
    fill_volumes,
)

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
