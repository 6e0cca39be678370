"""Tests for COW snapshots (extension; paper sections 1, 4.1.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common import AllocationError
from repro.fs import CPBatch

from ..conftest import small_ssd_sim


def write(sim, name, ids, ops=None):
    sim.engine.run_cp(CPBatch(writes={name: np.asarray(ids)}, ops=ops or len(ids)))


class TestSnapshotLifecycle:
    def test_create_pins_blocks(self):
        sim = small_ssd_sim()
        write(sim, "volA", np.arange(100))
        pinned = sim.create_snapshot("volA", "hourly.0")
        assert pinned == 100
        assert tuple(sim.vols["volA"].snapshots) == ("hourly.0",)

    def test_duplicate_name_rejected(self):
        sim = small_ssd_sim()
        write(sim, "volA", np.arange(10))
        sim.create_snapshot("volA", "s")
        with pytest.raises(AllocationError):
            sim.create_snapshot("volA", "s")

    def test_delete_unknown_rejected(self):
        sim = small_ssd_sim()
        with pytest.raises(AllocationError):
            sim.delete_snapshot("volA", "nope")

    def test_overwrite_of_snapped_block_defers_free(self):
        sim = small_ssd_sim()
        write(sim, "volA", np.arange(100))
        used_before = sim.store.nblocks - sim.store.free_count
        sim.create_snapshot("volA", "s")
        write(sim, "volA", np.arange(100))  # overwrite everything
        used_after = sim.store.nblocks - sim.store.free_count
        # Old blocks pinned: usage grew by the full overwrite.
        assert used_after == used_before + 100

    def test_overwrite_without_snapshot_frees(self):
        sim = small_ssd_sim()
        write(sim, "volA", np.arange(100))
        used_before = sim.store.nblocks - sim.store.free_count
        write(sim, "volA", np.arange(100))
        used_after = sim.store.nblocks - sim.store.free_count
        assert used_after == used_before  # COW freed the old copies

    def test_delete_releases_unreferenced(self):
        sim = small_ssd_sim()
        write(sim, "volA", np.arange(100))
        sim.create_snapshot("volA", "s")
        write(sim, "volA", np.arange(50))  # half diverges
        released = sim.delete_snapshot("volA", "s")
        assert released == 50  # only the diverged half was snapshot-only
        sim.engine.run_cp(CPBatch(ops=0))  # apply delayed frees
        sim.verify_consistency()

    def test_overlapping_snapshots(self):
        sim = small_ssd_sim()
        write(sim, "volA", np.arange(100))
        sim.create_snapshot("volA", "a")
        sim.create_snapshot("volA", "b")  # pins the same blocks
        write(sim, "volA", np.arange(100))
        # Deleting one snapshot frees nothing: the other still pins.
        assert sim.delete_snapshot("volA", "a") == 0
        assert sim.delete_snapshot("volA", "b") == 100
        sim.engine.run_cp(CPBatch(ops=0))
        sim.verify_consistency()

    def test_delete_of_deleted_data(self):
        sim = small_ssd_sim()
        write(sim, "volA", np.arange(100))
        sim.create_snapshot("volA", "s")
        sim.engine.run_cp(CPBatch(deletes={"volA": np.arange(100)}, ops=1))
        # Blocks survive the file deletion thanks to the snapshot.
        used = sim.store.nblocks - sim.store.free_count
        assert used == 100
        assert sim.delete_snapshot("volA", "s") == 100
        sim.engine.run_cp(CPBatch(ops=0))
        assert sim.store.free_count == sim.store.nblocks

    def test_consistency_with_snapshots_under_churn(self):
        sim = small_ssd_sim()
        rng = np.random.default_rng(0)
        size = sim.vols["volA"].spec.logical_blocks
        write(sim, "volA", np.arange(2000))
        sim.create_snapshot("volA", "s0")
        for i in range(8):
            ids = rng.integers(0, size, size=1500)
            write(sim, "volA", ids)
            if i == 3:
                sim.create_snapshot("volA", "s1")
            if i == 6:
                sim.delete_snapshot("volA", "s0")
        sim.delete_snapshot("volA", "s1")
        sim.engine.run_cp(CPBatch(ops=0))
        sim.verify_consistency()

    def test_snapshot_delete_frees_in_bulk_nonuniformly(self):
        """The paper's observation: snapshot deletion mass-frees blocks
        written around the same epoch, adding nonuniformity for the AA
        cache to exploit."""
        sim = small_ssd_sim()
        write(sim, "volA", np.arange(4000))
        sim.create_snapshot("volA", "epoch")
        rng = np.random.default_rng(1)
        for _ in range(4):
            write(sim, "volA", rng.integers(0, 4000, size=2000))
        g = sim.store.groups[0]
        before = g.topology.scores_from_bitmap(g.metafile.bitmap)
        sim.delete_snapshot("volA", "epoch")
        sim.engine.run_cp(CPBatch(ops=0))
        after = g.topology.scores_from_bitmap(g.metafile.bitmap)
        # The mass free increased total free space and changed the
        # per-AA distribution unevenly.
        assert after.sum() > before.sum()
        deltas = after - before
        assert deltas.max() > 0
        assert deltas.std() > 0
