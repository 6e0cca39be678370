"""Nothing of a CP that crashed survives recovery: the blocks it placed
and the client reads it served are held by the CP alone, so the next CP
prices neither — on a RAID aggregate and on an object-tier one."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.common.errors import CrashError
from repro.crash import CrashTracer, PersistenceModel, record_crash_points
from repro.fs import CPBatch, WaflSim

TIERS = {
    "raid": TierSpec(label="ssd", media="ssd", ndata=3, blocks_per_disk=4096,
                     stripes_per_aa=512),
    "object": TierSpec(label="s3", media="object", raid="none", nblocks=65536),
}


def build(tier: TierSpec, failed: tuple[int, int] | None) -> WaflSim:
    spec = AggregateSpec(tiers=(tier,), volumes=(VolumeDecl("v", logical_blocks=4096),))
    sim = WaflSim.build(spec, seed=0)
    sim.engine.run_cp(CPBatch(writes={"v": np.arange(100)}, ops=100))
    if failed is not None:
        sim.store.fail_disk(*failed)
    return sim


def crash_then_recover(kind: str | TierSpec, batch: CPBatch, name: str, edge: str, *,
                       failed: tuple[int, int] | None = None) -> WaflSim:
    """Run ``batch`` on a fresh sim of tier ``kind`` (with the ``failed``
    ``(group, disk)`` down), crash it at the first ``name`` ``edge``
    (found on a twin), and recover the committed image."""
    tier = TIERS[kind] if isinstance(kind, str) else kind
    twin = build(tier, failed)
    points = record_crash_points(lambda: twin.engine.run_cp(batch))
    at = next(p.index for p in points if (p.name, p.edge) == (name, edge))
    sim = build(tier, failed)
    model = PersistenceModel(sim, seed=0)
    prev = obs.install_tracer(CrashTracer(crash_at=at))
    try:
        with pytest.raises(CrashError):
            sim.engine.run_cp(batch)
    finally:
        obs.install_tracer(prev)
    model.capture_shadow(sim)
    model.recover()
    return sim


@pytest.mark.parametrize("kind", list(TIERS))
def test_a_crashed_cps_blocks_are_not_priced_again(kind):
    batch = CPBatch(writes={"v": np.arange(100, 200)}, ops=100)
    sim = crash_then_recover(kind, batch, "cp.allocate", "exit")
    stats = sim.engine.run_cp(CPBatch())
    assert stats.physical_blocks == 0
    assert stats.device_busy_us == 0


@pytest.mark.parametrize("kind", list(TIERS))
def test_a_crashed_cps_reads_are_not_priced_again(kind):
    sim = crash_then_recover(kind, CPBatch(reads=5000), "cp.boundary", "enter")
    stats = sim.engine.run_cp(CPBatch())
    assert stats.device_busy_us == 0
    assert stats.device_total_us == 0


def test_a_crashed_cps_degraded_reads_are_not_priced_again():
    """Group 1 runs with a failed disk, so its share of the reads is
    reconstructed; the CP crashes as group 0 starts pricing its writes."""
    tier = TierSpec(label="ssd", media="ssd", ndata=3, n_groups=2, blocks_per_disk=4096,
                    stripes_per_aa=512)
    batch = CPBatch(writes={"v": np.arange(100, 200)}, reads=5000, ops=100)
    sim = crash_then_recover(tier, batch, "rg.price_writes", "enter", failed=(1, 1))
    stats = sim.engine.run_cp(CPBatch())
    assert stats.reconstruction_reads == 0
    assert stats.device_busy_us == 0
