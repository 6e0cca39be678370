"""Conformance of the one aggregate class over every spec shape: what
CPEngine, mount, Iron, recovery and the auditor call on ``sim.store``
behaves the same for one RAID tier, one object tier and several tiers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.core.space import AllocSpace
from repro.devices.base import Device
from repro.fs import Aggregate, WaflSim
from repro.fs.aggregate import StoreCPReport
from repro.fs.tiers import choose_tier

from ..conftest import NO_VBNS

VOLUMES = (VolumeDecl("v", logical_blocks=4096),)

SPECS = {
    "raid": AggregateSpec(
        tiers=(TierSpec(label="ssd", media="ssd", n_groups=2, ndata=3,
                        blocks_per_disk=4096, stripes_per_aa=512),),
        volumes=VOLUMES,
    ),
    "linear": AggregateSpec(
        tiers=(TierSpec(label="s3", media="object", raid="none",
                        nblocks=16384, blocks_per_aa=1024),),
        volumes=VOLUMES,
    ),
    "tiered": AggregateSpec(
        tiers=(
            TierSpec(label="flash", media="ssd", raid="mirror", ndata=2,
                     blocks_per_disk=4096, stripes_per_aa=512),
            TierSpec(label="cloud", media="object", raid="none",
                     nblocks=16384, blocks_per_aa=1024),
        ),
        volumes=VOLUMES,
    ),
}


def test_every_spec_builds_one_class():
    stores = [WaflSim.build(spec, seed=0).store for spec in SPECS.values()]
    assert {type(s) for s in stores} == {Aggregate}
    assert [s.labels for s in stores] == [["ssd"], ["s3"], ["flash", "cloud"]]
    # The chooser pins each declared volume; a lone tier takes them all.
    assert [s.tier_of("v") for s in stores] == ["ssd", "s3", "cloud"]
    assert stores[2].tier_of("v") == choose_tier(SPECS["tiered"].tiers, "mixed")


@pytest.mark.parametrize("kind", list(SPECS), ids=list(SPECS))
def test_store_conforms(kind):
    store = WaflSim.build(SPECS[kind], seed=0).store

    assert store.tier_policy is None
    assert store.free_count == store.nblocks
    assert all(isinstance(d, Device) for d in store.devices)

    instances = store.physical_instances()
    assert instances and len({where for where, _, _ in instances}) == len(instances)
    spans = sorted((base, base + fs.topology.nblocks) for _, fs, base in instances)
    assert all(isinstance(fs, AllocSpace) for _, fs, _ in instances)
    # A space's offset is its global VBN base.
    assert all(fs.offset == base for _, fs, base in instances)
    # The instances tile the aggregate's VBN space exactly.
    assert spans[0][0] == 0 and spans[-1][1] == store.nblocks
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    marker = object()
    store.attach_injector(marker)
    assert all(fs.injector is marker for _, fs, _ in instances)
    store.attach_injector(None)

    vbns = store.allocate_in(store.labels, 600)
    assert vbns.size == 600 and np.unique(vbns).size == 600
    assert store.free_count == store.nblocks - 600
    report = store.cp_boundary(vbns, 16)
    assert isinstance(report, StoreCPReport) and report.blocks_written == 600
    store.log_free(vbns[:100])
    assert store.cp_boundary(NO_VBNS, 0).blocks_freed == 100
    assert store.free_count == store.nblocks - 500
    fracs = store.selected_aa_free_fractions()
    assert fracs.dtype == np.float64 and fracs.size >= 1
    assert ((0 < fracs) & (fracs <= 1)).all()
