"""Unit tests for RAID geometry and VBN mapping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common import GeometryError
from repro.raid import RAIDGeometry


class TestConstruction:
    def test_basic_properties(self):
        g = RAIDGeometry(ndata=6, nparity=1, blocks_per_disk=1024)
        assert g.ndisks == 7
        assert g.stripes == 1024
        assert g.data_blocks == 6144

    def test_raid_dp(self):
        g = RAIDGeometry(ndata=14, nparity=2, blocks_per_disk=1024)
        assert g.ndisks == 16

    @pytest.mark.parametrize(
        "kw",
        [
            dict(ndata=0, nparity=1, blocks_per_disk=1024),
            dict(ndata=3, nparity=-1, blocks_per_disk=1024),
            dict(ndata=3, nparity=1, blocks_per_disk=0),
            dict(ndata=3, nparity=1, blocks_per_disk=100),
        ],
    )
    def test_invalid_geometry(self, kw):
        with pytest.raises(GeometryError):
            RAIDGeometry(**kw)


class TestMapping:
    @pytest.fixture
    def g(self):
        return RAIDGeometry(ndata=3, nparity=1, blocks_per_disk=1024)

    def test_disk_major_layout(self, g):
        assert g.dbn_of(np.array([0, 1023, 1024, 2048])).tolist() == [0, 1023, 0, 0]

    def test_vbn_inverse(self, g):
        vbns = np.arange(g.data_blocks)
        assert np.array_equal(g.vbn(vbns // g.blocks_per_disk, g.dbn_of(vbns)), vbns)

    def test_vbn_validation(self, g):
        with pytest.raises(GeometryError):
            g.vbn(3, 0)
        with pytest.raises(GeometryError):
            g.vbn(0, 1024)

    def test_stripe_vbns(self, g):
        assert g.stripe_vbns(5).tolist() == [5, 1029, 2053]

    def test_stripe_vbns_validation(self, g):
        with pytest.raises(GeometryError):
            g.stripe_vbns(1024)

    def test_stripe_range_vbns(self, g):
        ranges = g.stripe_range_vbns(10, 20)
        assert ranges == [(10, 20), (1034, 1044), (2058, 2068)]

    def test_stripe_range_validation(self, g):
        with pytest.raises(GeometryError):
            g.stripe_range_vbns(20, 10)
        with pytest.raises(GeometryError):
            g.stripe_range_vbns(0, 2000)

    def test_stripe_of_aliases_dbn(self, g):
        v = np.array([7, 1031])
        assert np.array_equal(g.stripe_of(v), g.dbn_of(v))
