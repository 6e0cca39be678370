"""A FlexVol's maps are int32, its container map costs memory only
where it maps, and its pin mask exists only while a snapshot is held.
A Hypothesis schedule of writes, overwrites, deletes, snapshot
creates/deletes and CPs drives such a volume beside a twin with int64
maps (a dense container map with -1 holes) and a mask that lives as
long as the volume: every step must return the same physical frees,
leave the same delayed-free log, decode to the same container map and
serialize to the same bytes."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.crash import serialize_fs
from repro.fs import CPBatch, FlexVol, WaflSim, export_topaa, simulate_mount

DECL = VolumeDecl("v", logical_blocks=96, virtual_blocks=4096, blocks_per_aa=512)
#: Physical VBNs are handed out from just below 2^31, so a map narrower
#: than 32 bits cannot hold them.
PHYS_BASE = 2**31 - 2**16
OPS = ("write", "overwrite", "delete", "snap", "unsnap", "cp")


class EagerTwin(FlexVol):
    """int64 maps, the container map dense with -1 holes, and a pin
    mask that is never dropped."""

    def __init__(self, decl: VolumeDecl) -> None:
        super().__init__(decl, seed=0)
        self.l2v = self.l2v.astype(np.int64)
        self.dense = np.full(self.nblocks, -1, dtype=np.int64)
        self._pin()

    def physical_of(self, virtual) -> np.ndarray:
        return self.dense[virtual]

    def mapped(self) -> np.ndarray:
        return self.dense >= 0

    def remap(self, virtual, physical: np.ndarray) -> None:
        self.dense[virtual] = physical

    def _unmap(self, virtual: np.ndarray) -> None:
        self.dense[virtual] = -1

    def _pin(self) -> None:
        self._snap_mask = np.zeros(self.nblocks, dtype=bool)
        for held in self._snapshots.values():
            self._snap_mask[held] = True


def test_both_maps_are_int32():
    vol = FlexVol(DECL, seed=0)
    assert vol.l2v.dtype.itemsize == vol.physical_of([0]).dtype.itemsize == 4


def _resident_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")
def test_the_container_map_costs_memory_only_where_it_maps():
    # A dense map of 2^25 virtual VBNs would be 128 MiB resident.
    before = _resident_bytes()
    vol = FlexVol(VolumeDecl("big", logical_blocks=4096, virtual_blocks=2**25), seed=0)
    for ids in np.split(np.arange(4096), 4):
        new_v, old_v, _ = vol.stage_writes(ids)
        vol.commit_writes(ids, new_v, PHYS_BASE + ids, old_v)
        vol.cp_boundary()
    assert np.array_equal(vol.physical_of(vol.l2v), PHYS_BASE + np.arange(4096))
    assert _resident_bytes() - before < 16 * 2**20


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")
def test_a_volume_at_the_vbn_limit_builds_and_mounts():
    # Its container map spans 8 GiB of address space, more than some
    # hosts will commit; only the pages written may cost memory.
    before = _resident_bytes()
    spec = AggregateSpec(
        tiers=(TierSpec(label="ssd", media="ssd", ndata=3, blocks_per_disk=8192),),
        volumes=(VolumeDecl("big", logical_blocks=1024, virtual_blocks=2**31 - 2**16),),
    )
    sim = WaflSim.build(spec, seed=0)
    sim.engine.run_cp(CPBatch(writes={"big": np.arange(256)}, ops=256))
    assert simulate_mount(sim, export_topaa(sim)).used_topaa
    assert _resident_bytes() - before < 64 * 2**20


def test_pin_mask_lives_only_while_a_snapshot_does():
    vol = FlexVol(DECL, seed=0)
    ids = np.arange(8, dtype=np.int64)
    new_v, old_v, _ = vol.stage_writes(ids)
    vol.commit_writes(ids, new_v, PHYS_BASE + ids, old_v)
    assert vol.pin_mask is None
    vol.create_snapshot("a")
    vol.create_snapshot("b")
    vol.delete_snapshot("a")
    assert vol.pin_mask is not None and int(vol.pin_mask.sum()) == 8
    vol.delete_snapshot("b")
    assert vol.pin_mask is None


def _step(vol: FlexVol, op: str, ids: np.ndarray, pick: int, next_p: int) -> np.ndarray:
    """Apply one operation; return the physical VBNs it frees."""
    mapped = np.flatnonzero(vol.l2v >= 0)
    if op in ("overwrite", "delete"):
        ids = np.intersect1d(ids, mapped)
    if op in ("write", "overwrite") and ids.size:
        new_v, old_v, old_p = vol.stage_writes(ids)
        vol.commit_writes(ids, new_v, np.arange(next_p, next_p + ids.size), old_v)
        return old_p
    if op == "delete":
        return vol.stage_deletes(ids)
    if op == "snap" and f"s{pick}" not in vol.snapshots:
        vol.create_snapshot(f"s{pick}")
    if op == "unsnap" and vol.snapshots:
        names = tuple(vol.snapshots)
        return vol.delete_snapshot(names[pick % len(names)])
    if op == "cp":
        vol.cp_boundary()
    return np.empty(0, dtype=np.int64)


@given(steps=st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 2**16)),
                      min_size=1, max_size=30))
def test_int32_maps_and_lazy_mask_match_the_eager_int64_twin(steps):
    vol, twin = FlexVol(DECL, seed=0), EagerTwin(DECL)
    next_p = PHYS_BASE
    for op, seed in steps:
        rng = np.random.default_rng(seed)
        ids = np.unique(rng.integers(0, DECL.logical_blocks, size=rng.integers(1, 48)))
        freed = _step(vol, op, ids, seed % 4, next_p)
        assert np.array_equal(freed, _step(twin, op, ids, seed % 4, next_p)), op
        next_p += DECL.logical_blocks
        assert np.array_equal(vol.delayed_frees.pending_vbns(),
                              twin.delayed_frees.pending_vbns()), op
        every = np.arange(vol.nblocks)
        assert np.array_equal(vol.physical_of(every), twin.physical_of(every)), op
        assert serialize_fs(vol) == serialize_fs(twin), op
    assert twin.dense.dtype == np.int64 and twin.pin_mask is not None
