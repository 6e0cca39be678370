"""Aging-lite (unpriced) CPs must land the exact priced-aging state.

``build_aged_ssd_sim`` ages with unpriced CPs, which skip stripe
classification and device-timing *outputs* — outputs that
``reset_measurement_state`` discards anyway — but every device write
still happens, so the post-aging bitmap bytes and FTL state (valid
pages, open units, erase counts) must be indistinguishable from a
fully priced aging run.  The priced twin is the same build with
``RAIDGroupRuntime._price_cp_writes_unpriced`` swapped for the priced
``_price_cp_writes``.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import build_aged_ssd_sim
from repro.fs.aggregate import RAIDGroupRuntime


def _small_aged():
    # Small but not tiny: age_filesystem batches 16384 churn ops per CP,
    # so the aggregate needs that much transient headroom above the fill.
    return build_aged_ssd_sim(
        n_groups=1,
        ndata=3,
        blocks_per_disk=32768,
        fill_fraction=0.55,
        churn_factor=1.0,
        seed=11,
    )


class TestAgingLiteIdentity:
    def test_unpriced_aging_reaches_identical_state(self, monkeypatch):
        priced_cps = []

        def priced_writes(group, local_vbns, report):
            priced_cps.append(int(local_vbns.size))
            return group._price_cp_writes(local_vbns, report)

        with monkeypatch.context() as m:
            m.setattr(RAIDGroupRuntime, "_price_cp_writes_unpriced", priced_writes)
            priced = _small_aged()
        assert sum(priced_cps) > 0  # the twin's aging CPs really were priced
        lite = _small_aged()
        assert priced.store.free_count == lite.store.free_count
        for gp, gl in zip(priced.store.groups, lite.store.groups):
            assert np.array_equal(
                gp.metafile.bitmap.raw_bytes, gl.metafile.bitmap.raw_bytes
            )
            assert not gp.unpriced and not gl.unpriced  # reset post-aging
            for dp, dl in zip(gp.devices, gl.devices):
                assert np.array_equal(dp._valid, dl._valid)
                assert np.array_equal(dp._valid_per_eb, dl._valid_per_eb)
                assert np.array_equal(dp.erase_counts, dl.erase_counts)
                assert sorted(dp._open) == sorted(dl._open)
                for unit in dp._open:
                    assert (
                        dp._open[unit].valid_at_open
                        == dl._open[unit].valid_at_open
                    )
                    assert dp._open[unit].credits == dl._open[unit].credits
        for name, vp in priced.vols.items():
            vl = lite.vols[name]
            assert np.array_equal(
                vp.metafile.bitmap.raw_bytes, vl.metafile.bitmap.raw_bytes
            )
            assert np.array_equal(vp.l2v, vl.l2v)
            every = np.arange(vp.nblocks)
            assert np.array_equal(vp.physical_of(every), vl.physical_of(every))
