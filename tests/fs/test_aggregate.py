"""Unit tests for physical stores (RAID aggregates, linear stores)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common import BitmapError, GeometryError
from repro.common.config import TierSpec
from repro.fs import (
    LinearStore,
    MediaType,
    PolicyKind,
    RAIDStore,
)

from ..conftest import NO_VBNS, trim_committed


def make_store(n_groups=2, media=MediaType.SSD, **kw):
    tier = TierSpec(label="t", media=media.value, n_groups=n_groups, ndata=3,
                    blocks_per_disk=8192, stripes_per_aa=1024)
    return RAIDStore(tier, **kw)


class TestRAIDStore:
    def test_global_space_concatenates_groups(self):
        st = make_store()
        assert st.nblocks == 2 * 3 * 8192
        assert st.free_count == st.nblocks

    def test_log_free_routes_each_vbn_to_its_group(self):
        st = make_store()
        bound = 3 * 8192
        st.log_free(np.array([bound, 0, bound - 1]))
        assert st.groups[0].delayed_frees.pending_vbns().tolist() == [0, bound - 1]
        assert st.groups[1].delayed_frees.pending_vbns().tolist() == [0]

    @pytest.mark.parametrize("n_groups", [1, 2])
    @pytest.mark.parametrize("past_end", [False, True], ids=["negative", "past-end"])
    def test_log_free_refuses_vbns_outside_the_store(self, n_groups, past_end):
        st = make_store(n_groups=n_groups)
        v = st.allocate(512)
        st.cp_boundary(v, 0)
        bad = st.nblocks + 5 if past_end else -1
        with pytest.raises(BitmapError, match=rf"\[{bad}\] outside .* \[0, {st.nblocks}\)"):
            st.log_free(np.append(v[:4], bad))
        # Refused whole: nothing logged, so the next CP frees nothing.
        assert all(g.delayed_frees.pending_count == 0 for g in st.groups)
        assert st.cp_boundary(NO_VBNS, 0).blocks_freed == 0

    def test_allocate_and_free_roundtrip(self):
        st = make_store()
        v = st.allocate(1000)
        assert v.size == 1000
        assert st.free_count == st.nblocks - 1000
        st.log_free(v)
        st.cp_boundary(v, 0)
        assert st.free_count == st.nblocks

    def test_cp_report_contents(self):
        st = make_store()
        rep = st.cp_boundary(st.allocate(600), 0)
        assert rep.blocks_written == 600
        assert rep.device_busy_us > 0
        assert rep.full_stripes == 200  # 600 blocks / 3 disks
        assert rep.partial_stripes == 0
        assert len(rep.groups) == 2
        assert rep.metafile_blocks >= 2
        assert rep.spanned_blocks >= 600

    def test_devices_priced_per_group(self):
        st = make_store()
        rep = st.cp_boundary(st.allocate(600), 0)
        assert sum(g.blocks_written for g in rep.groups) == 600
        for grp in rep.groups:
            assert grp.blocks_written > 0
            assert grp.device_busy_us > 0
            # Empty AAs fill stripe-major: blocks spread evenly on disks.
            assert grp.blocks_per_disk.max() - grp.blocks_per_disk.min() <= 1

    def test_parity_device_writes(self):
        st = make_store(n_groups=1)
        st.cp_boundary(st.allocate(300), 0)
        parity = st.groups[0].parity_devices[0]
        assert parity.stats.host_blocks_written == 100  # stripes touched

    def test_ssd_trim_on_free(self):
        st = make_store(n_groups=1)
        v = st.allocate(3000)
        st.cp_boundary(v, 0)
        dev = st.groups[0].data_devices[0]
        assert dev.live_fraction() > 0
        st.log_free(v)
        report = st.cp_boundary(NO_VBNS, 0)
        # The boundary frees; the drive is told only once the CP commits.
        assert dev.live_fraction() > 0
        trim_committed(st, report)
        assert dev.live_fraction() == 0.0

    def test_mirror_twins_take_their_data_device_trims(self):
        tier = TierSpec(label="m", media="ssd", raid="mirror", ndata=3,
                        blocks_per_disk=8192, stripes_per_aa=1024)
        st = RAIDStore(tier)
        v = st.allocate(3000)
        st.cp_boundary(v, 0)
        st.log_free(v[::2])
        trim_committed(st, st.cp_boundary(NO_VBNS, 0))
        g = st.groups[0]
        for data, twin in zip(g.data_devices, g.parity_devices):
            assert np.array_equal(twin._valid, data._valid)
            assert np.array_equal(twin._valid_per_eb, data._valid_per_eb)
        assert 0 < g.parity_devices[0].live_fraction() < 0.1

    def test_selected_fraction_trace(self):
        st = make_store()
        st.allocate(10)
        fr = st.groups[0].selected_aa_free_fractions()
        assert fr.size >= 1
        assert np.all((fr >= 0) & (fr <= 1))

    def test_charge_reads(self):
        st = make_store()
        rep = st.cp_boundary(NO_VBNS, 300)
        assert rep.device_busy_us > 0
        # The reads were this CP's alone: the next boundary prices none.
        assert st.cp_boundary(NO_VBNS, 0).device_busy_us == 0

    def test_random_policy_store(self):
        st = make_store(policy=PolicyKind.RANDOM, seed=3)
        v = st.allocate(500)
        assert v.size == 500
        st.cp_boundary(v, 0)

    def test_object_media_rejected_in_raid(self):
        with pytest.raises(GeometryError):
            RAIDStore(TierSpec(label="t", media="object", raid="none", nblocks=65536))


class TestLinearStore:
    def test_allocate_sequential(self):
        st = LinearStore(32768 * 2, policy=PolicyKind.CACHE)
        v = st.allocate(100)
        assert np.all(np.diff(v) == 1)

    def test_cp_boundary_prices_device(self):
        st = LinearStore(32768 * 2)
        rep = st.cp_boundary(st.allocate(500), 0)
        assert rep.blocks_written == 500
        assert rep.chains == 1
        assert rep.device_busy_us > 0

    def test_free_path(self):
        st = LinearStore(32768 * 2)
        v = st.allocate(100)
        st.log_free(v)
        rep = st.cp_boundary(v, 0)
        assert rep.blocks_freed == 100
        assert st.free_count == st.nblocks

    @pytest.mark.parametrize("past_end", [False, True], ids=["negative", "past-end"])
    def test_log_free_refuses_vbns_outside_the_store(self, past_end):
        st = LinearStore(32768 * 2)
        v = st.allocate(100)
        st.cp_boundary(v, 0)
        bad = st.nblocks + 5 if past_end else -1
        with pytest.raises(BitmapError, match=rf"\[{bad}\] outside .* \[0, {st.nblocks}\)"):
            st.log_free(np.append(v, bad))
        assert st.delayed_frees.pending_count == 0
        assert st.cp_boundary(NO_VBNS, 0).blocks_freed == 0

    def test_metafile_accounting(self):
        st = LinearStore(32768 * 4)
        rep = st.cp_boundary(st.allocate(10), 0)
        assert rep.metafile_blocks == 1
