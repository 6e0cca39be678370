"""Unit tests for media-aware AA sizing (paper section 3.2)."""

from __future__ import annotations

import pytest

from repro.common import GeometryError
from repro.core import (
    aa_size_for_hdd,
    aa_size_for_smr,
    aa_size_for_ssd,
    fit_aa_size,
)
from repro.core.aa import StripeAATopology
from repro.raid import RAIDGeometry


class TestFitAASize:
    def test_exact_target(self):
        assert fit_aa_size(65536, 4096) == 4096

    def test_rounds_down_to_divisor(self):
        assert fit_aa_size(65536, 5000) == 4096

    def test_falls_back_to_smallest_divisor(self):
        assert fit_aa_size(65536, 4) == 8

    def test_target_above_total(self):
        assert fit_aa_size(4096, 100000) == 4096

    def test_alignment(self):
        assert fit_aa_size(63 * 64, 200, align=63) % 63 == 0

    def test_bad_total_raises(self):
        with pytest.raises(GeometryError):
            fit_aa_size(100, 10, align=63)


class TestHDD:
    def test_default_is_4k_stripes(self):
        g = RAIDGeometry(6, 1, 65536)
        size = aa_size_for_hdd(g)
        assert size.size == 4096
        assert size.policy == "hdd"

    def test_small_disk_adjusts(self):
        g = RAIDGeometry(6, 1, 2048)
        assert aa_size_for_hdd(g).size == 2048

    def test_topology_accepts_result(self):
        g = RAIDGeometry(6, 1, 65536)
        StripeAATopology(g, aa_size_for_hdd(g).size)


class TestSSD:
    def test_multiple_of_erase_block(self):
        g = RAIDGeometry(6, 1, 65536)
        size = aa_size_for_ssd(g, erase_block_blocks=512)
        assert size.size % 512 == 0
        assert size.size >= 4 * 512

    def test_larger_than_hdd_default(self):
        """SSD AAs cover several erase blocks (Figure 4B) so they are
        at least the HDD default here."""
        g = RAIDGeometry(6, 1, 65536)
        assert aa_size_for_ssd(g).size >= 2048

    def test_bad_erase_block_rejected(self):
        g = RAIDGeometry(6, 1, 65536)
        with pytest.raises(GeometryError):
            aa_size_for_ssd(g, erase_block_blocks=100)

    def test_topology_accepts_result(self):
        g = RAIDGeometry(6, 1, 65536)
        StripeAATopology(g, aa_size_for_ssd(g).size)


class TestSMR:
    def test_azcs_alignment(self):
        """AZCS-aligned AAs are multiples of 63 data blocks (and of 8
        for the topology), per Figure 4C."""
        stripes = 63 * 8 * 128  # admits 504-aligned divisors
        g = RAIDGeometry(4, 1, stripes)
        size = aa_size_for_smr(g, zone_blocks=4096, azcs=True)
        assert size.size % 63 == 0
        assert size.size % 8 == 0
        # Alignment rounding may shave a fraction of a zone.
        assert size.size >= 1.9 * 4096

    def test_without_azcs_no_63_alignment(self):
        g = RAIDGeometry(4, 1, 65536)
        size = aa_size_for_smr(g, zone_blocks=4096, azcs=False)
        assert size.size >= 2 * 4096
        assert size.size % 8 == 0

    def test_default_hdd_size_is_misaligned(self):
        """The premise of Figure 4A: the historical 4k-stripe AA is not
        a multiple of the 63-block AZCS payload."""
        assert 4096 % 63 != 0

    def test_topology_accepts_result(self):
        stripes = 63 * 8 * 128
        g = RAIDGeometry(4, 1, stripes)
        StripeAATopology(g, aa_size_for_smr(g, zone_blocks=4096).size)
