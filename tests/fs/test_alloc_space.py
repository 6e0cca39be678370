"""The AllocSpace lifecycle, once, over the three kinds of space.

``FlexVol``, ``LinearStore`` and ``RAIDGroupRuntime`` share one
implementation of degraded allocation, cache rebuild, the per-CP
counter deltas and the fault-aware metafile read
(:class:`repro.core.space.AllocSpace`); they differ only in the
fault-semantics hook.  Each test runs against all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro.common import MediaError, TransientIOError
from repro.common.config import TierSpec, VolumeDecl
from repro.core import BitmapWalkSource
from repro.core.space import AllocSpace
from repro.faults import FaultInjector, FaultKind
from repro.fs.aggregate import LinearStore, RAIDStore, StoreCPReport
from repro.fs.flexvol import FlexVol
from ..conftest import assert_scores_match


@dataclass
class Rig:
    """One space plus the way its owner allocates and runs a CP."""

    space: AllocSpace
    allocate: Callable[[int], np.ndarray]
    cp: Callable[[], StoreCPReport]
    kind: str = ""


def _flexvol() -> Rig:
    vol = FlexVol(VolumeDecl("v", logical_blocks=8192, blocks_per_aa=1024), seed=0)
    # The CP engine's path: always through the volume's *current* allocator.
    return Rig(vol, lambda n: vol.allocator.allocate(n), vol.cp_boundary)


def _store_rig(space: AllocSpace, store) -> Rig:
    """The CP engine's path for a store: a CP's boundary gets the VBNs
    allocated since the last one."""
    placed: list[np.ndarray] = []

    def allocate(n: int) -> np.ndarray:
        placed.append(store.allocate(n))
        return placed[-1]

    def cp() -> StoreCPReport:
        written = np.concatenate(placed) if placed else np.empty(0, dtype=np.int64)
        placed.clear()
        return store.cp_boundary(written, 0)

    return Rig(space, allocate, cp)


def _linear() -> Rig:
    store = LinearStore(16384, blocks_per_aa=1024, seed=0)
    return _store_rig(store, store)


def _raid() -> Rig:
    store = RAIDStore(
        TierSpec(label="ssd", media="ssd", ndata=3, blocks_per_disk=4096, stripes_per_aa=512),
        seed=0,
    )
    # Allocation goes through the aggregate, which must follow the
    # group across every rebind without being told.
    return _store_rig(store.groups[0], store)


KINDS = {"flexvol": _flexvol, "linear": _linear, "raid": _raid}


@pytest.fixture(params=sorted(KINDS))
def rig(request) -> Rig:
    rig = KINDS[request.param]()
    rig.kind = request.param
    return rig


class TestLifecycle:
    def test_degrade_then_rebuild_keeps_allocating_and_counting(self, rig):
        space = rig.space
        reports = []

        assert rig.allocate(700).size == 700
        reports.append(rig.cp())
        first_alloc, first_cache = space.allocator, space.cache
        assert first_alloc.current_aa is not None
        first_ops = first_cache.maintenance_ops

        space.enter_degraded()
        assert first_alloc.current_aa is None  # released, not leaked
        assert isinstance(space.source, BitmapWalkSource)
        assert space.cache is None and space.degraded_alloc
        # Zero failed allocations while the cache is offline.
        assert rig.allocate(900).size == 900
        reports.append(rig.cp())
        walk_alloc = space.allocator
        assert space.source.selects >= 1

        space.rebuild_cache(space.bitmap_scores())
        assert space.cache is not None and not space.degraded_alloc
        assert type(space.cache) is type(first_cache)
        # Straight after the rebind the owner's allocate() draws from
        # the new cache (for the RAID kind: through the aggregate).
        assert rig.allocate(300).size == 300
        assert space.cache.stats()["selects"] >= 1
        assert walk_alloc.blocks_allocated == 900
        reports.append(rig.cp())

        for r in reports:
            assert r.cache_ops >= 0 and r.aa_switches >= 0 and r.spanned_blocks >= 0
        allocators = (first_alloc, walk_alloc, space.allocator)
        assert sum(r.aa_switches for r in reports) == sum(
            len(a.selected_aa_scores) for a in allocators
        )
        assert sum(r.spanned_blocks for r in reports) == sum(
            a.spanned_blocks for a in allocators
        )
        assert sum(r.cache_ops for r in reports) == (
            first_ops + space.cache.maintenance_ops
        )
        assert_scores_match(space.keeper, space.metafile.bitmap)

    def test_reset_selection_trace(self, rig):
        rig.allocate(100)
        rig.cp()
        assert rig.space.selected_aa_free_fractions().size == 1
        rig.space.reset_selection_trace()
        assert rig.space.selected_aa_free_fractions().size == 0
        rig.allocate(10)  # same AA: no new selection, no negative delta
        assert rig.cp().aa_switches == 0


class TestMetafileFaultSemantics:
    def test_transient_faults_raise_then_clear(self, rig):
        inj = FaultInjector(1)
        rig.space.attach_injector(inj)
        inj.arm(rig.space.where, FaultKind.TRANSIENT_READ)
        with pytest.raises(TransientIOError):
            rig.space.read_metafile()
        blocks = rig.space.metafile.metafile_block_count
        assert rig.space.read_metafile() == blocks

    def test_latent_sector_errors(self, rig):
        inj = FaultInjector(1)
        rig.space.attach_injector(inj)
        inj.arm(rig.space.where, FaultKind.LATENT_SECTOR_ERROR, 1)
        if rig.kind == "linear":
            # No local parity: any latent error is unrecoverable.
            with pytest.raises(MediaError):
                rig.space.read_metafile()
        else:
            rig.space.read_metafile()
            if rig.kind == "raid":
                # Reconstructed within the parity budget, and charged.
                assert rig.space.blocks_reconstructed == 1
            else:
                # The aggregate's RAID hides it: not even consulted.
                assert inj.injected_total == 0

    def test_unreconstructable_damage_is_a_media_error(self, rig):
        inj = FaultInjector(1)
        rig.space.attach_injector(inj)
        inj.arm(rig.space.where, FaultKind.UNRECONSTRUCTABLE)
        if rig.kind == "raid":
            # Only consulted once a read actually needs reconstruction.
            rig.space.read_metafile()
            inj.arm(rig.space.where, FaultKind.LATENT_SECTOR_ERROR, 1)
        with pytest.raises(MediaError):
            rig.space.read_metafile()


def test_space_is_freed_without_the_cycle_collector(rig):
    """Spaces hold multi-megabyte arrays; callers that build systems in
    a loop (the benchmark's set-up sampling) rely on refcounting alone
    to release them — also after a rebind."""
    import gc
    import weakref

    rig.space.rebuild_cache()
    ref = weakref.ref(rig.space)
    gc.disable()
    try:
        del rig.space, rig.allocate, rig.cp
        assert ref() is None
    finally:
        gc.enable()


class TestCopiedSpaceReplenishesFromItsOwnBitmap:
    """The HBPS replenisher is bound to the space's metafile; a copy
    (the crash explorer deep-copies a simulator per crash point) must
    scan — and charge the scan to — its own bitmap, not the original's."""

    @staticmethod
    def _assert_bound_to(space: AllocSpace) -> None:
        mf = space.metafile
        before = mf.blocks_read_total
        scores = space.source.replenisher()
        assert np.array_equal(scores, space.bitmap_scores())
        assert mf.blocks_read_total == before + mf.metafile_block_count

    def test_deepcopy(self):
        import copy

        original = _flexvol().space
        clone = copy.deepcopy(original)
        clone.allocator.allocate(3000)
        clone.cp_boundary()
        assert clone.free_count < original.free_count
        untouched = original.metafile.blocks_read_total
        self._assert_bound_to(clone)
        assert original.metafile.blocks_read_total == untouched
        assert not np.array_equal(
            clone.source.replenisher(), original.bitmap_scores()
        )

    def test_pickle_round_trip(self):
        import pickle

        from repro import WaflSim
        from repro.common.config import AggregateSpec, TierSpec, VolumeDecl

        sim = WaflSim.build(
            AggregateSpec(
                tiers=(TierSpec(label="ssd", media="ssd", ndata=3,
                                blocks_per_disk=4096),),
                volumes=(VolumeDecl("v", logical_blocks=2048),),
            ),
            seed=0,
        )
        restored = pickle.loads(pickle.dumps(sim))
        self._assert_bound_to(restored.vols["v"])
