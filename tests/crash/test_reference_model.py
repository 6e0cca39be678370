"""A system-level reference model: a Hypothesis state machine drives a
small two-tier all-SSD aggregate through the public API — writes and
deletes staged for the next CP, CPs, snapshot create and delete, the
delayed-free budget, segment cleaning, tier migration, and a seeded
crash at one span edge of a CP followed by recovery — and after every
rule checks the simulator against a reference that knows nothing of its
internals:

* per volume, ``{logical id: write generation}`` as of the last CP that
  carried writes: exactly those ids are mapped; an id keeps its virtual
  VBN until it is rewritten and gets a new one when it is (cleaning and
  migration move physical homes only);
* each snapshot pins exactly the virtual VBNs its volume mapped when it
  was taken, and a crash loses a snapshot taken after the last commit;
* every mapped virtual VBN has a physical VBN of its own, allocated in
  the aggregate's bitmaps (one owner per physical VBN);
* every live SSD data device and mirror twin holds exactly the blocks
  its group's bitmap allocates; once a crash has lost a CP's writes,
  at least those.

A rule the API refuses with a typed error leaves the reference as it
was.  The CP-time auditor checks every CP the model's sim takes, with or
without ``pytest --audit``: a CP after a crash prices only its own work.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.analysis.auditor import InvariantAuditor
from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.common.errors import AllocationError, CrashError, OutOfSpaceError
from repro.crash import CrashTracer, PersistenceModel
from repro.fs import CPBatch, WaflSim
from repro.fs.segment_cleaner import clean_best_aas
from repro.tiering import migrate_volume_tier

from ..conftest import examples

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
stateful = pytest.importorskip("hypothesis.stateful")
rule, invariant = stateful.rule, stateful.invariant

VOL_BLOCKS = 1024
SPEC = AggregateSpec(
    tiers=(
        TierSpec(label="flash", media="ssd", raid="mirror", ndata=2, blocks_per_disk=2048,
                 stripes_per_aa=256, erase_block_blocks=256),
        TierSpec(label="bulk", media="ssd", ndata=3, blocks_per_disk=2048,
                 stripes_per_aa=256, erase_block_blocks=256),
    ),
    volumes=(
        VolumeDecl("hot", logical_blocks=VOL_BLOCKS, workload="oltp"),
        VolumeDecl("cold", logical_blocks=VOL_BLOCKS, workload="sequential"),
    ),
)
VOLS = st.sampled_from([v.name for v in SPEC.volumes])
#: Ids from a quarter of each volume, so that writes overwrite often.
IDS = st.lists(st.integers(0, VOL_BLOCKS // 4 - 1), min_size=1, max_size=64)
SNAPS = st.sampled_from(["s0", "s1"])


class ReferenceModel(stateful.RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.sim = WaflSim.build(SPEC, seed=1)
        self.sim.engine.auditor = InvariantAuditor()
        self.model = PersistenceModel(self.sim, seed=1)
        names = list(self.sim.vols)
        #: Committed ``{logical id: write generation}`` per volume.
        self.gen: dict[str, dict[int, int]] = {v: {} for v in names}
        self.staged_writes: dict[str, set[int]] = {v: set() for v in names}
        self.staged_deletes: dict[str, set[int]] = {v: set() for v in names}
        #: Snapshot name -> pinned virtual VBNs, live and as committed.
        self.snaps: dict[str, dict[str, frozenset]] = {v: {} for v in names}
        self.committed_snaps = {v: {} for v in names}
        self.committed_cp = self.sim.engine.cp_index
        self.seen_l2v = {v: vol.l2v.copy() for v, vol in self.sim.vols.items()}
        self.committed_l2v = {v: a.copy() for v, a in self.seen_l2v.items()}
        self.rewritten: dict[str, set[int]] = {v: set() for v in names}
        self.lost_a_cp = False
        for vol in names:  # every example starts from committed data
            self.write(vol, range(VOL_BLOCKS // 8))
        self.cp()

    # -- rules -----------------------------------------------------------
    @rule(vol=VOLS, ids=IDS)
    def write(self, vol, ids):
        self.staged_writes[vol].update(ids)

    @rule(vol=VOLS, ids=IDS)
    def delete(self, vol, ids):
        self.staged_deletes[vol].update(ids)

    @rule()
    def cp(self):
        self.sim.engine.run_cp(self._staged_batch())
        self._writes_committed()

    @rule(vol=VOLS, name=SNAPS)
    def snapshot(self, vol, name):
        try:
            self.sim.create_snapshot(vol, name)
        except AllocationError:
            assert name in self.snaps[vol]
            return
        l2v = self.sim.vols[vol].l2v
        self.snaps[vol][name] = frozenset(l2v[l2v >= 0].tolist())

    @rule(vol=VOLS, name=SNAPS)
    def delete_snapshot(self, vol, name):
        try:
            self.sim.delete_snapshot(vol, name)
        except AllocationError:
            assert name not in self.snaps[vol]
            return
        del self.snaps[vol][name]

    @rule(blocks=st.sampled_from([None, 1]))
    def free_budget(self, blocks):
        self.sim.set_free_budget(blocks)

    @rule(group=st.integers(0, 1), n_aas=st.integers(0, 3))
    def clean(self, group, n_aas):
        clean_best_aas(self.sim, group, n_aas)

    @rule(vol=VOLS, tier=st.sampled_from(["flash", "bulk"]))
    def migrate(self, vol, tier):
        try:
            migrate_volume_tier(self.sim, vol, tier)
        except OutOfSpaceError:
            pass  # the relocation CP was refused before anything moved

    @rule(edge=st.integers(0, 27), n=st.integers(0, 64))
    def crash(self, edge, n):
        for vol, gen in self.gen.items():  # the lost CP overwrites too
            self.staged_writes[vol].update(sorted(gen)[:n])
        tracer = CrashTracer(crash_at=edge)
        prev = obs.install_tracer(tracer)
        try:
            self.sim.engine.run_cp(self._staged_batch())
        except CrashError:
            pass
        finally:
            obs.install_tracer(prev)
        if tracer.crashed is None:  # the CP had fewer edges: it committed
            self._writes_committed()
            return
        self.model.capture_shadow(self.sim)
        self.model.recover()
        for vol in self.gen:
            self.staged_writes[vol].clear()
            self.staged_deletes[vol].clear()
            self.snaps[vol] = dict(self.committed_snaps[vol])
            self.seen_l2v[vol] = self.committed_l2v[vol].copy()
        self.lost_a_cp = True

    # -- reference bookkeeping -------------------------------------------
    def _staged_batch(self) -> CPBatch:
        def arrays(staged):
            return {v: np.fromiter(sorted(ids), np.int64) for v, ids in staged.items() if ids}

        writes = arrays(self.staged_writes)
        return CPBatch(writes=writes, deletes=arrays(self.staged_deletes),
                       ops=sum(int(a.size) for a in writes.values()))

    def _writes_committed(self) -> None:
        for vol, gen in self.gen.items():
            for i in self.staged_writes[vol]:
                gen[i] = gen.get(i, 0) + 1
            for i in self.staged_deletes[vol]:
                gen.pop(i, None)
            self.rewritten[vol] = self.staged_writes[vol] - self.staged_deletes[vol]
            self.staged_writes[vol] = set()
            self.staged_deletes[vol] = set()

    # -- checks ----------------------------------------------------------
    @invariant()
    def maps_follow_the_reference(self):
        for name, vol in self.sim.vols.items():
            l2v, seen, gen = vol.l2v, self.seen_l2v[name], self.gen[name]
            assert set(np.flatnonzero(l2v >= 0).tolist()) == set(gen)
            new = self.rewritten[name] & set(gen)
            kept = np.fromiter(set(gen) - new, np.int64)
            new = np.fromiter(new, np.int64)
            assert (l2v[kept] == seen[kept]).all() and (l2v[new] != seen[new]).all()
            self.rewritten[name] = set()
            self.seen_l2v[name] = l2v.copy()
            snaps = {s: frozenset(held.tolist()) for s, held in vol.snapshots.items()}
            assert snaps == self.snaps[name]

    @invariant()
    def one_owner_per_physical_vbn(self):
        homes = np.concatenate([vol.physical_of(np.flatnonzero(vol.mapped()))
                                for vol in self.sim.vols.values()])
        assert (homes >= 0).all() and np.unique(homes).size == homes.size
        for _, space, base in self.sim.store.physical_instances():
            mine = homes[(homes >= base) & (homes < base + space.metafile.nblocks)]
            assert space.metafile.bitmap.test(mine - base).all(), space.where

    @invariant()
    def devices_hold_what_is_allocated(self):
        for g in self.sim.store.groups:
            bpd = g.geometry.blocks_per_disk
            for d, dev in g.live_ssds():
                held = g.metafile.bitmap.test(np.arange(d * bpd, (d + 1) * bpd))
                live = dev.live(np.arange(bpd))
                where = f"{g.where} {dev.name}"
                assert not (held & ~live).any(), f"{where}: allocated block trimmed"
                assert self.lost_a_cp or not (live & ~held).any(), f"{where}: free block live"

    @invariant()
    def commits_move_the_committed_reference(self):
        if self.sim.engine.cp_index != self.committed_cp:
            assert self.model.committed.cp_index == self.sim.engine.cp_index
            self.committed_cp = self.sim.engine.cp_index
            for vol in self.gen:
                self.committed_snaps[vol] = dict(self.snaps[vol])
                self.committed_l2v[vol] = self.sim.vols[vol].l2v.copy()


ReferenceModel.TestCase.settings = hypothesis.settings(
    max_examples=examples(12), stateful_step_count=20, deadline=None
)
TestReferenceModel = ReferenceModel.TestCase
