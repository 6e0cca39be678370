"""Persistence-model unit tests and the seeded fuzz round-trips of
satellite (c): serialized FS images and TopAA pages either survive
their round trip byte-exactly or fail with a typed error — never
deserialize into garbage."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import obs
from repro.analysis.auditor import audit_sim
from repro.common import (
    CrashError,
    MountError,
    SerializationError,
    TornWriteError,
    make_rng,
)
from repro.core import PAGE_KIND_HBPS
from repro.core.topaa import PAGE_KIND_FS_IMAGE, seal_page, unseal_page
from repro.crash import (
    SECTOR_BYTES,
    CrashTracer,
    PersistenceModel,
    capture_image,
    deserialize_fs,
    record_crash_points,
    serialize_fs,
    tear_page,
)
from repro.faults.recovery import instances
from repro.fs import CPBatch, export_topaa
from repro.workloads import RandomOverwriteWorkload

from ..conftest import share_physical, small_ssd_sim


def churn(sim, *, cps=1, seed=13):
    sim.run(RandomOverwriteWorkload(sim, ops_per_cp=512, seed=seed), cps)


def lose_cp(sim, *, seed=13, batch=None):
    """One CP (churn, or ``batch``) that crashes at its last span edge,
    the ``cp`` exit: all its work is done, but the superblock switch
    never happens."""
    if batch is None:
        batch = next(iter(RandomOverwriteWorkload(sim, ops_per_cp=512, seed=seed)))
    probe = copy.deepcopy(sim)
    edges = record_crash_points(lambda: probe.engine.run_cp(batch))
    prev = obs.install_tracer(CrashTracer(crash_at=edges[-1].index))
    try:
        with pytest.raises(CrashError):
            sim.engine.run_cp(batch)
    finally:
        obs.install_tracer(prev)


class TestSerializeRoundTrip:
    def test_every_instance_round_trips(self, aged_sim):
        for where, fs in instances(aged_sim).items():
            st = deserialize_fs(serialize_fs(fs))
            assert st.nblocks == fs.metafile.nblocks, where
            assert st.free_count == fs.metafile.free_count, where
            assert st.bitmap_bytes == fs.metafile.to_bytes(), where
            assert np.array_equal(st.pending, fs.delayed_frees.pending_vbns())
            if getattr(fs, "l2v", None) is not None:
                assert np.array_equal(st.l2v, fs.l2v)
                assert np.array_equal(st.v2p, fs.physical_of(np.arange(fs.nblocks)))
                assert [n for n, _ in st.snapshots] == sorted(fs._snapshots)
            else:
                assert st.l2v is None and st.v2p is None

    def test_snapshot_pins_survive(self, aged_sim):
        vol = aged_sim.vol("volA")
        st = deserialize_fs(serialize_fs(vol))
        (name, held), *_ = st.snapshots
        assert name == "hourly.0"
        assert np.array_equal(held, vol._snapshots["hourly.0"])

    def test_serialization_is_deterministic(self, aged_sim):
        vol = aged_sim.vol("volA")
        assert serialize_fs(vol) == serialize_fs(vol)

    def test_measurement_counters_are_excluded(self, aged_sim):
        """Recovery itself performs metafile reads; they must not change
        what the instance re-serializes to."""
        vol = aged_sim.vol("volA")
        before = serialize_fs(vol)
        vol.read_metafile()
        assert serialize_fs(vol) == before


class TestFuzzRoundTrips:
    def test_truncation_always_raises_typed_error(self, aged_sim):
        rng = make_rng(5)
        for where, fs in instances(aged_sim).items():
            payload = serialize_fs(fs)
            cuts = rng.integers(0, len(payload), size=16)
            for cut in cuts:
                with pytest.raises(SerializationError):
                    deserialize_fs(payload[: int(cut)])

    def test_trailing_garbage_raises(self, aged_sim):
        payload = serialize_fs(aged_sim.vol("volB"))
        with pytest.raises(SerializationError, match="trailing"):
            deserialize_fs(payload + b"\x00" * 8)

    def test_bitflips_in_sealed_fs_page_are_detected(self, aged_sim):
        """Random bit flips anywhere in a sealed page trip the CRC32
        envelope before the payload is ever parsed."""
        rng = make_rng(6)
        vol = aged_sim.vol("volA")
        page = seal_page(serialize_fs(vol), PAGE_KIND_FS_IMAGE, vol.topology.num_aas)
        for _ in range(32):
            pos = int(rng.integers(0, len(page)))
            bit = 1 << int(rng.integers(0, 8))
            mutated = page[:pos] + bytes([page[pos] ^ bit]) + page[pos + 1 :]
            with pytest.raises(SerializationError):
                unseal_page(mutated, PAGE_KIND_FS_IMAGE, vol.topology.num_aas)

    def test_bitflips_in_payload_never_parse_to_garbage(self, aged_sim):
        """Even when damage bypasses the envelope (flips applied to the
        bare payload), the bounds-checked parser either reproduces a
        valid state or raises the typed error."""
        rng = make_rng(7)
        vol = aged_sim.vol("volB")
        payload = serialize_fs(vol)
        for _ in range(32):
            pos = int(rng.integers(0, len(payload)))
            bit = 1 << int(rng.integers(0, 8))
            mutated = payload[:pos] + bytes([payload[pos] ^ bit]) + payload[pos + 1 :]
            try:
                st = deserialize_fs(mutated)
            except SerializationError:
                continue
            # A flip the validators cannot see (e.g. inside an l2v
            # entry that stays in range) must still parse structurally.
            assert st.nblocks == vol.metafile.nblocks

    def test_topaa_page_damage_is_detected(self, aged_sim):
        img = export_topaa(aged_sim)
        vol = aged_sim.vol("volA")
        page = img.vol_pages["volA"]
        flipped = page[:40] + bytes([page[40] ^ 0x10]) + page[41:]
        with pytest.raises(SerializationError):
            unseal_page(flipped, PAGE_KIND_HBPS, vol.topology.num_aas)
        with pytest.raises(SerializationError, match="truncated"):
            unseal_page(page[:100], PAGE_KIND_HBPS, vol.topology.num_aas)


class TestTearPage:
    @staticmethod
    def variants(new: bytes, old: bytes | None) -> set[bytes]:
        out = set()
        n_sectors = -(-len(new) // SECTOR_BYTES)
        for s in range(n_sectors + 1):
            cut = s * SECTOR_BYTES
            if cut >= len(new):
                out.add(new)
                continue
            tail = (old or b"")[cut : len(new)]
            tail += b"\x00" * (len(new) - cut - len(tail))
            out.add(new[:cut] + tail)
        return out

    def test_cuts_only_at_sector_boundaries(self):
        rng = make_rng(8)
        new = bytes(rng.integers(0, 256, size=3 * SECTOR_BYTES + 77, dtype=np.uint8))
        old = bytes(rng.integers(0, 256, size=2 * SECTOR_BYTES, dtype=np.uint8))
        allowed = self.variants(new, old)
        for _ in range(24):
            torn = tear_page(new, old, rng)
            assert len(torn) == len(new)
            assert torn in allowed

    def test_missing_old_page_reads_as_zeros(self):
        rng = make_rng(9)
        new = bytes(rng.integers(0, 256, size=2 * SECTOR_BYTES, dtype=np.uint8))
        allowed = self.variants(new, None)
        for _ in range(16):
            assert tear_page(new, None, rng) in allowed

    def test_full_spectrum_reachable(self):
        """Both extremes occur: write never started (pure old page) and
        write completed (pure new page)."""
        rng = make_rng(10)
        new = bytes(range(256)) * 4
        old = bytes(reversed(new))
        seen = {tear_page(new, old, rng) for _ in range(64)}
        assert new in seen
        assert old[: len(new)] in seen

    def test_same_seed_same_tears(self):
        new = bytes(1000)
        old = bytes([1]) * 1000

        def draws(seed: int) -> list[bytes]:
            rng = make_rng(seed)
            return [tear_page(new, old, rng) for _ in range(8)]

        assert draws(21) == draws(21)


class TestCommitRecover:
    def test_recover_restores_committed_bytes(self, aged_sim):
        model = PersistenceModel(aged_sim, seed=3)
        churn(aged_sim, seed=14)
        committed = model.committed
        assert committed.cp_index == aged_sim.engine.cp_index
        lose_cp(aged_sim, seed=23)
        diverged = capture_image(aged_sim, cp_index=committed.cp_index)
        assert diverged.pages != committed.pages
        report = model.recover()
        assert set(report.restored) == set(instances(aged_sim))
        assert report.mount.used_topaa
        assert report.rebuild["hbps_caches_refreshed"] >= 1
        recaptured = capture_image(aged_sim, cp_index=committed.cp_index)
        assert recaptured.pages == committed.pages
        assert audit_sim(aged_sim).ok

    def test_recovered_sim_keeps_working(self, aged_sim):
        model = PersistenceModel(aged_sim, seed=3)
        lose_cp(aged_sim, seed=15)
        model.recover()
        churn(aged_sim, cps=2, seed=16)
        aged_sim.verify_consistency()

    def test_commit_adopts_new_image(self, aged_sim):
        # The engine commits the model it carries at the end of run_cp.
        model = PersistenceModel(aged_sim, seed=3)
        assert aged_sim.engine.persistence is model
        old_digest = model.committed.digest()
        old_cp = model.committed.cp_index
        churn(aged_sim, seed=17)
        image = model.committed
        assert image.cp_index == old_cp + 1 == aged_sim.engine.cp_index
        assert image.digest() != old_digest
        assert model.shadow is None and model.shadow_topaa is None

    def test_committed_is_replaced_only_by_commit(self, aged_sim):
        # The read-only property is the whole guard: Python refuses the
        # assignment from anywhere, and the engine's commit() still moves
        # the image.
        model = PersistenceModel(aged_sim, seed=3)
        old = model.committed
        with pytest.raises(AttributeError):
            model.committed = capture_image(aged_sim)
        assert model.committed is old
        churn(aged_sim, seed=19)
        assert model.committed is not old

    def test_capture_shadow_tears_against_committed(self, aged_sim):
        model = PersistenceModel(aged_sim, seed=3)
        lose_cp(aged_sim, seed=18)
        shadow = model.capture_shadow(aged_sim)
        assert shadow.cp_index == model.committed.cp_index + 1
        assert set(shadow.pages) == set(model.committed.pages)
        report = model.recover()
        # The same seed produced at least one mid-write page across the
        # whole image; each was detected, recorded, and discarded.
        assert report.torn_pages or report.shadow_intact

    def test_missing_committed_page_is_unrecoverable(self, aged_sim):
        model = PersistenceModel(aged_sim, seed=3)
        model.committed.pages.pop("vol:volA")
        with pytest.raises(MountError, match="no committed page"):
            model.recover()

    def test_committed_v2p_past_the_store_is_refused_before_any_restore(self, aged_sim):
        # A CRC-valid page whose v2p maps a live virtual VBN past the
        # store's end used to recover and audit clean; the next
        # overwrite of that block then failed inside run_cp.
        model = PersistenceModel(aged_sim, seed=3)
        vol = aged_sim.vol("volA")
        live_v = vol.l2v[vol.l2v >= 0][:1]
        good = vol.physical_of(live_v)
        vol.remap(live_v, np.array([aged_sim.store.nblocks + 5]))
        model.committed.pages["vol:volA"] = seal_page(
            serialize_fs(vol), PAGE_KIND_FS_IMAGE, vol.topology.num_aas)
        vol.remap(live_v, good)
        lose_cp(aged_sim, seed=20)
        before = capture_image(aged_sim).pages
        with pytest.raises(SerializationError, match="vol:volA"):
            model.recover()
        assert capture_image(aged_sim).pages == before

    def test_committed_stale_v2p_entry_is_refused_before_any_restore(self, aged_sim):
        # A CRC-valid page whose v2p populates a virtual VBN nothing
        # maps or pins, naming a live physical block, used to recover,
        # audit and scan clean.
        model = PersistenceModel(aged_sim, seed=3)
        vol = aged_sim.vol("volA")
        good = vol.physical_of(np.arange(vol.nblocks))
        hole = np.flatnonzero(good < 0)[:1]
        vol.remap(hole, vol.physical_of(vol.l2v[vol.l2v >= 0][:1]))
        model.committed.pages["vol:volA"] = seal_page(
            serialize_fs(vol), PAGE_KIND_FS_IMAGE, vol.topology.num_aas)
        vol.restore_maps(vol.l2v.copy(), good, vol.snapshots.items())
        lose_cp(aged_sim, seed=21)
        before = capture_image(aged_sim).pages
        with pytest.raises(SerializationError, match="vol:volA has 1 stale entries"):
            model.recover()
        assert capture_image(aged_sim).pages == before

    @pytest.mark.parametrize("owner, sharer", [("volA", "volA"), ("volA", "volB")])
    def test_committed_two_owner_block_is_refused_before_any_restore(self, aged_sim, owner, sharer):
        # A committed image whose v2p entries name one physical VBN
        # twice, in one volume or across two, used to recover, audit and
        # scan clean.
        model = PersistenceModel(aged_sim, seed=3)
        vol = aged_sim.vol(sharer)
        good = vol.physical_of(np.arange(vol.nblocks))
        share_physical(aged_sim, owner, sharer)
        model.commit()
        vol.restore_maps(vol.l2v.copy(), good, vol.snapshots.items())
        lose_cp(aged_sim, seed=22)
        before = capture_image(aged_sim).pages
        with pytest.raises(SerializationError, match="5 extra owners"):
            model.recover()
        assert capture_image(aged_sim).pages == before

    def test_damaged_committed_page_raises_torn_write(self, aged_sim):
        model = PersistenceModel(aged_sim, seed=3)
        page = model.committed.pages["vol:volA"]
        model.committed.pages["vol:volA"] = page[:-4] + bytes(
            b ^ 0xFF for b in page[-4:]
        )
        with pytest.raises(TornWriteError, match="vol:volA"):
            model.recover()


def device_gaps(sim) -> dict[str, tuple[int, int]]:
    """Per SSD data device: blocks allocated but trimmed, and blocks
    free but still valid."""
    gaps = {}
    for g in sim.store.groups:
        bpd = g.geometry.blocks_per_disk
        for d, dev in enumerate(g.data_devices):
            held = g.metafile.bitmap.test(np.arange(d * bpd, (d + 1) * bpd))
            live = dev.live(np.arange(bpd))
            gaps[dev.name] = (int((held & ~live).sum()), int((live & ~held).sum()))
    return gaps


class TestTrimsAfterCommit:
    """A drive may discard a freed block only once no committed image
    references it, so a CP lost before its superblock switch leaves
    every block the recovered bitmaps allocate on its device, and
    recovery discards the blocks that CP wrote."""

    def test_lost_cp_leaves_no_allocated_block_trimmed(self):
        sim = small_ssd_sim(seed=3)
        sim.engine.run_cp(CPBatch(writes={"volA": np.arange(20_000)}, ops=10_000))
        model = PersistenceModel(sim, seed=3)
        assert set(device_gaps(sim).values()) == {(0, 0)}
        overwrite = make_rng(3).choice(20_000, 5_000, replace=False)
        lose_cp(sim, batch=CPBatch(writes={"volA": overwrite}, ops=2_500))
        model.recover()
        trimmed = {name: gap[0] for name, gap in device_gaps(sim).items()}
        assert trimmed == dict.fromkeys(trimmed, 0)
        # What the lost CP wrote is free again, and recovery trimmed it.
        assert sum(gap[1] for gap in device_gaps(sim).values()) == 0
