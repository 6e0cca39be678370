"""Conformance of the three physical stores to the ``Store`` protocol
(the surface CPEngine, mount, Iron, recovery and the auditor call)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.core.space import AllocSpace
from repro.devices.base import Device
from repro.fs.aggregate import LinearStore, RAIDStore, Store, StoreCPReport
from repro.tiering import make_tiered_store


def _raid() -> RAIDStore:
    return RAIDStore(
        TierSpec(label="ssd", media="ssd", n_groups=2, ndata=3,
                 blocks_per_disk=4096, stripes_per_aa=512),
        seed=0,
    )


def _linear() -> LinearStore:
    return LinearStore(16384, blocks_per_aa=1024, seed=0)


def _tiered():
    return make_tiered_store(
        AggregateSpec(
            tiers=(
                TierSpec(label="flash", media="ssd", raid="mirror", ndata=2,
                         blocks_per_disk=4096, stripes_per_aa=512),
                TierSpec(label="cloud", media="object", raid="none",
                         nblocks=16384, blocks_per_aa=1024),
            ),
            volumes=(VolumeDecl("v", logical_blocks=4096),),
        ),
        seed=0,
    )


#: Exactly what the consumers call.
SURFACE = {
    "nblocks", "free_count", "devices", "tier_policy", "allocate", "log_free",
    "charge_reads", "cp_boundary", "physical_instances", "attach_injector",
    "selected_aa_free_fractions",
}


def test_protocol_declares_exactly_the_surface():
    declared = set(Store.__annotations__) | {
        n for n in vars(Store) if not n.startswith("_")
    }
    assert declared == SURFACE


@pytest.mark.parametrize("make", [_raid, _linear, _tiered], ids=["raid", "linear", "tiered"])
def test_store_conforms(make):
    store: Store = make()
    for name in SURFACE:
        assert hasattr(store, name), name

    assert store.tier_policy is None or hasattr(store.tier_policy, "place")
    assert store.free_count == store.nblocks
    assert all(isinstance(d, Device) for d in store.devices)

    instances = store.physical_instances()
    assert instances and len({where for where, _, _ in instances}) == len(instances)
    spans = sorted((base, base + fs.topology.nblocks) for _, fs, base in instances)
    assert all(isinstance(fs, AllocSpace) for _, fs, _ in instances)
    # A space's offset is its global VBN base.
    assert all(fs.offset == base for _, fs, base in instances)
    # The instances tile the store's VBN space exactly.
    assert spans[0][0] == 0 and spans[-1][1] == store.nblocks
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    marker = object()
    store.attach_injector(marker)
    assert all(fs.injector is marker for _, fs, _ in instances)
    store.attach_injector(None)

    vbns = store.allocate(600)
    assert vbns.size == 600 and np.unique(vbns).size == 600
    assert store.free_count == store.nblocks - 600
    store.charge_reads(16)
    report = store.cp_boundary()
    assert isinstance(report, StoreCPReport) and report.blocks_written == 600
    store.log_free(vbns[:100])
    assert store.cp_boundary().blocks_freed == 100
    assert store.free_count == store.nblocks - 500
    fracs = store.selected_aa_free_fractions()
    assert fracs.dtype == np.float64 and fracs.size >= 1
    assert ((0 < fracs) & (fracs <= 1)).all()
