"""The six benchmark workloads.

Each workload is a class with the steps the runner calls in order:

``build(seed, smoke)``
    the system's own set-up (build + fill/age + calibrate) — this is
    what ``setup_s`` times.  The testbed/aging seed is fixed per
    workload; ``seed`` only feeds the generators.
``prepare()``
    pre-materialise the inputs from ``seed`` (untimed; the
    ``workloads`` layer's time).  Returns the blocks generated.
``run(watch)``
    the timed phase: closed loop, one thread.  Returns a list of
    :class:`Segment` — small fixed pieces of the fixed work, each with
    its own wall time taken with ``watch`` — so the runner can combine
    them per segment over iterations (``run.profile_rate``).
``finish()``
    output checks and the deterministic (simulated) results.
``extras(tracer)`` (optional, traced pass only)
    layer measurements taken outside the timed phase.

Sizes are part of the workload's definition (see ``README.md``); the
``smoke`` variants exist only for the tests and the warm-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis import InvariantAuditor, audit_sim
from repro.bench.harness import CORES, build_aged_ssd_sim, popcount_audit, set_bitmap_checks
from repro.cluster import Cluster, make_shard_specs, noisy_fleet_requests, run_rebalance
from repro.cluster.stats import derive_seed
from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.core import RAIDAgnosticAACache, RAIDAwareAACache
from repro.core.topaa import load_hbps_cache, serialize_hbps_cache
from repro.devices import HDD, SSD, SMRDrive
from repro.fs import CPBatch, WaflSim, background_rebuild, export_topaa, iron, simulate_mount
from repro.traffic import TrafficEngine, build_scenario, build_traffic_sim, calibrate_capacity
from repro.workloads import (
    FileChurnWorkload,
    RandomOverwriteWorkload,
    SequentialWriteWorkload,
    fill_volumes,
)

__all__ = [
    "REFERENCE_CALIBRATION_S",
    "host_calibration",
    "Stopwatch",
    "Segment",
    "Outcome",
    "WORKLOAD_CLASSES",
    "digest_of",
]

perf = time.perf_counter

#: CPs of the audited tail segment (``analysis.auditor.overhead_frac``).
AUDITED_TAIL_CPS = 20


#: What :func:`host_calibration` takes on the host the recorded numbers
#: come from when nothing else runs there.  Host times are reported at
#: this speed (see ``README.md``, *Noise band*).
REFERENCE_CALIBRATION_S = 0.0008

_CAL_DATA = np.random.default_rng(7).integers(0, 2**40, size=2**15)
_CAL_INDEX = np.random.default_rng(8).integers(0, 2**15, size=2**13)


def host_calibration() -> float:
    """Wall time of a fixed ~1 ms kernel that shares no code with the
    program: interpreter arithmetic plus NumPy sort, scan and gather on
    256 KiB.  Sampled between timed regions, it says how fast the host
    was running *then*; on a shared box that moves by 20-30% over
    minutes and the program's wall times move with it."""
    t0 = perf()
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    np.cumsum(np.sort(_CAL_DATA))
    _CAL_DATA[_CAL_INDEX].sum()
    return perf() - t0


class Stopwatch:
    """Marks the timed regions.  ``stop()`` returns the region's wall
    time; with a tracer attached the region is also a *window*, so the
    traced pass knows which root spans belong to the timed phase.
    Between regions it samples :func:`host_calibration`, about once per
    ``CAL_EVERY_S`` of timed wall."""

    CAL_EVERY_S = 0.05
    #: Samples taken at most after one (long) region.
    CAL_BURST = 5

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self._t0 = 0.0
        self._since_cal = 0.0
        self.calibration: list[float] = [host_calibration()]

    def start(self) -> None:
        if self.tracer is not None:
            self.tracer.in_window = True
        self._t0 = perf()

    def stop(self) -> float:
        wall = perf() - self._t0
        if self.tracer is not None:
            self.tracer.in_window = False
            self.tracer.window_s += wall
        self._since_cal += wall
        if self._since_cal >= self.CAL_EVERY_S:
            burst = min(int(self._since_cal / self.CAL_EVERY_S), self.CAL_BURST)
            self.calibration.extend(host_calibration() for _ in range(burst))
            self._since_cal = 0.0
        return wall


@dataclass
class Segment:
    """One timed piece of an iteration's fixed work."""

    label: str
    work: float
    wall_s: float


@dataclass
class Outcome:
    """What ``finish()`` reports for one iteration."""

    #: Operations attempted / failed (CPs, mounts, epochs, output checks).
    attempted: int = 0
    failed: int = 0
    #: Names of the failed output checks (printed, never swallowed).
    failures: list[str] = field(default_factory=list)
    #: Simulated metrics (``sim_*`` and friends), exact for a seed.
    sim: dict[str, float] = field(default_factory=dict)
    #: Further deterministic facts folded into ``sim_digest``.
    payload: dict = field(default_factory=dict)
    #: Per-layer numbers only the workload can see.
    counters: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


def digest_of(outcome: Outcome) -> str:
    blob = json.dumps({"sim": outcome.sim, "payload": outcome.payload}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _holds(check) -> bool:
    """True iff a raising-style check passes."""
    try:
        check()
    except Exception:  # noqa: BLE001 - any error is a failed output check
        return False
    return True


def _sim_checks(out: Outcome, sim: WaflSim) -> None:
    """The output checks every simulator-backed iteration ends with."""
    out.check("popcount_audit", _holds(lambda: popcount_audit(sim)))
    out.check("audit_sim", audit_sim(sim).ok)
    out.check("iron.scan", iron.scan(sim).clean)


def _media_results(out: Outcome, sim: WaflSim) -> None:
    """What the allocation policy is for: capacity under the paper's
    20-core model, SSD write amplification, and how empty the selected
    aggregate AAs were."""
    was = [
        d.write_amplification
        for d in sim.store.devices
        if isinstance(d, SSD) and d.stats.host_blocks_written
    ]
    fracs = [
        s / fs.topology.aa_blocks
        for _, fs, _ in sim.store.physical_instances()
        for s in fs.allocator.selected_aa_scores
    ]
    m = sim.metrics
    cpu, dev = m.cpu_us_per_op, m.device_us_per_op
    out.sim["sim_capacity_ops"] = min(
        CORES * 1e6 / cpu if cpu else float("inf"),
        1e6 / dev if dev else float("inf"),
    )
    out.sim["sim_write_amp"] = float(np.mean(was)) if was else 0.0
    out.sim["sim_selected_free"] = float(np.mean(fracs)) if fracs else 0.0
    out.payload.update(
        cps=len(m.cps),
        ops=m.total_ops,
        physical_blocks=m.total_physical_blocks,
        blocks_freed=int(sum(c.blocks_freed for c in m.cps)),
        free_count=int(sim.store.free_count),
    )
    out.counters["devices.ssd.write_amp"] = out.sim["sim_write_amp"]
    out.counters["devices.smr.rewrites"] = sum(
        d.rewrites for d in sim.store.devices if isinstance(d, SMRDrive)
    )
    out.counters["devices.hdd.seeks"] = sum(
        d.stats.seeks for d in sim.store.devices if isinstance(d, HDD)
    )
    out.counters["core.allocator.aa_switches"] = sum(c.aa_switches for c in m.cps)
    out.counters["core.cache.maintenance_ops"] = sum(c.cache_ops for c in m.cps)


def _timed_cps(sim, batches, per_segment: int, watch: Stopwatch, before_cp=None) -> list[Segment]:
    """Run ``batches`` as CPs, one :class:`Segment` per ``per_segment``."""
    segments: list[Segment] = []
    run_cp = sim.engine.run_cp
    for lo in range(0, len(batches), per_segment):
        chunk = batches[lo : lo + per_segment]
        watch.start()
        for i, batch in enumerate(chunk, start=lo):
            if before_cp is not None:
                before_cp(i)
            run_cp(batch)
        segments.append(Segment("cp", len(chunk), watch.stop()))
    return segments


def _audited_tail(tracer, engine, drive) -> dict[str, float]:
    """Run ``drive()`` with a CP-time auditor armed and compare the mean
    ``run_cp`` span against the unaudited timed phase."""
    calls0, total0 = tracer.by_name["CPEngine.run_cp"][:2]
    engine.auditor = InvariantAuditor()
    try:
        drive()
    finally:
        engine.auditor = None
    calls1, total1 = tracer.by_name["CPEngine.run_cp"][:2]
    if not calls0 or calls1 == calls0:
        return {}
    audited = (total1 - total0) / (calls1 - calls0)
    return {"analysis.auditor.overhead_frac": audited / (total0 / calls0) - 1.0}


# ----------------------------------------------------------------------
class OverwriteSSD:
    """Paper section 4.1: aged all-SSD aggregate, 8 KiB random overwrites."""

    name = "overwrite_ssd"
    WARM_CPS = 10

    def build(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.work = 20 if smoke else 200
        self.sim = build_aged_ssd_sim(
            blocks_per_disk=65_536 if smoke else 131_072,
            churn_factor=1.0 if smoke else 2.0,
            seed=42,
        )

    def prepare(self) -> int:
        wl = RandomOverwriteWorkload(
            self.sim, ops_per_cp=8192, blocks_per_op=2, seed=self.seed
        )
        n = self.WARM_CPS + self.work + AUDITED_TAIL_CPS
        self.batches = [wl.next_batch() for _ in range(n)]
        return sum(ids.size for b in self.batches for ids in b.writes.values())

    def run(self, watch: Stopwatch) -> list[Segment]:
        for batch in self.batches[: self.WARM_CPS]:
            self.sim.engine.run_cp(batch)
        timed = self.batches[self.WARM_CPS : self.WARM_CPS + self.work]
        return _timed_cps(self.sim, timed, 2, watch)

    def finish(self) -> Outcome:
        out = Outcome(attempted=self.work)
        _sim_checks(out, self.sim)
        _media_results(out, self.sim)
        return out

    def extras(self, tracer) -> dict[str, float]:
        tail = self.batches[self.WARM_CPS + self.work :]
        run_cp = self.sim.engine.run_cp
        return _audited_tail(tracer, self.sim.engine, lambda: [run_cp(b) for b in tail])


# ----------------------------------------------------------------------
class ChurnTiered:
    """Mirror-SSD + RAID-4 HDD + RAID-DP SMR/AZCS tiers under creates,
    deletes, sequential chains, random overwrites and snapshot churn."""

    name = "churn_tiered"
    SNAP_PERIOD = 20

    def build(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.work = 21 if smoke else 210
        k = 4 if smoke else 1  # smoke: quarter-size disks and volumes
        spec = AggregateSpec(
            tiers=(
                TierSpec(label="flash", media="ssd", raid="mirror", ndata=4,
                         blocks_per_disk=65_536 // k),
                TierSpec(label="disk", media="hdd", raid="raid4", ndata=8,
                         blocks_per_disk=65_536 // k),
                TierSpec(label="smr", media="smr", raid="raid_dp", ndata=8,
                         blocks_per_disk=64_512 // k, stripes_per_aa=2016,
                         zone_blocks=2048, azcs=True),
            ),
            volumes=(
                VolumeDecl("oltp0", logical_blocks=163_840 // k, workload="oltp"),
                VolumeDecl("stream0", logical_blocks=327_680 // k, workload="sequential"),
                VolumeDecl("scratch0", logical_blocks=327_680 // k, workload="mixed"),
            ),
        )
        self.sim = WaflSim.build(spec, seed=55)
        fill_volumes(self.sim, ops_per_cp=16384, seed=56)
        set_bitmap_checks(self.sim, False)

    def prepare(self) -> int:
        sim, seed = self.sim, self.seed
        generators = (
            FileChurnWorkload(sim, ops_per_cp=32, max_file_blocks=1024, seed=seed),
            SequentialWriteWorkload(sim, ops_per_cp=4096, blocks_per_op=4, seed=seed + 1),
            RandomOverwriteWorkload(sim, ops_per_cp=4096, blocks_per_op=2, seed=seed + 2),
        )
        self.batches = [generators[i % 3].next_batch() for i in range(self.work)]
        self.snapshots = 0
        return sum(
            ids.size
            for b in self.batches
            for ids in (*b.writes.values(), *b.deletes.values())
        )

    def _snapshot_churn(self, i: int) -> None:
        """Snapshot every volume at CP 10 mod 20; delete it 10 CPs later."""
        phase = i % self.SNAP_PERIOD
        if phase == 10:
            for name in self.sim.vols:
                self.sim.create_snapshot(name, f"s{i}")
            self.snapshots += 1
        elif phase == 0 and i > 0:
            for name in self.sim.vols:
                self.sim.delete_snapshot(name, f"s{i - 10}")

    def run(self, watch: Stopwatch) -> list[Segment]:
        return _timed_cps(self.sim, self.batches, 3, watch, self._snapshot_churn)

    def finish(self) -> Outcome:
        out = Outcome(attempted=self.work)
        _sim_checks(out, self.sim)
        _media_results(out, self.sim)
        out.payload["snapshots"] = self.snapshots
        out.payload["tier_usage"] = self.sim.store.tier_usage()
        return out


# ----------------------------------------------------------------------
class TrafficNoisy:
    """Noisy-neighbor traffic scenario; open loop in *simulated* time,
    a fixed 120 simulated CPs on the host (cost is superlinear in the
    CP count because the aggressor's backlog grows: never rescale)."""

    name = "traffic_noisy"
    VICTIM = "t1-victim"
    #: CP batch size: the paper testbed's 8192 ops per CP (about 1 M
    #: client ops over the run), at which the engine outweighs the CPs.
    OPS_PER_CP = 8192

    def build(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.work = 20 if smoke else 120
        self.sim = build_traffic_sim(
            4,
            blocks_per_disk=65_536 if smoke else 131_072,
            churn_factor=1.0 if smoke else 2.0,
        )
        self.calibration = calibrate_capacity(self.sim, ops_per_cp=self.OPS_PER_CP)

    def prepare(self) -> int:
        # Arrivals and op mixes are drawn inside the engine; only the
        # tenant population can be built ahead.
        tenants = build_scenario(
            "noisy-neighbor", self.sim, self.calibration.capacity_ops,
            n_tenants=4, seed=self.seed,
        )
        self.engine = TrafficEngine(self.sim, tenants, target_ops_per_cp=self.OPS_PER_CP)
        return 0

    def run(self, watch: Stopwatch) -> list[Segment]:
        segments: list[Segment] = []
        step = self.engine.step
        for _ in range(self.work):
            watch.start()
            stats = step()
            segments.append(Segment("step", stats.ops if stats is not None else 0, watch.stop()))
        watch.start()
        self.result = self.engine.summary()
        segments.append(Segment("summary", 0, watch.stop()))
        return segments

    def finish(self) -> Outcome:
        res = self.result
        out = Outcome(attempted=self.work)
        _sim_checks(out, self.sim)
        out.check("every CP interval ran", res.cps == self.work)
        out.sim["sim_capacity_ops"] = res.capacity_ops
        out.sim["sim_victim_p99_ms"] = res.tenants[self.VICTIM].p99_ms
        out.payload["result"] = res.as_dict()
        tenants = list(res.tenants.values())
        arrived = sum(t.arrived for t in tenants)
        out.counters.update({
            "traffic.arrivals": arrived,
            "traffic.admitted": sum(t.admitted for t in tenants),
            "traffic.rejected_frac": sum(t.rejected for t in tenants) / arrived if arrived else 0.0,
            "traffic.backlog_peak": max(t.max_queue_depth for t in tenants),
        })
        return out

    def extras(self, tracer) -> dict[str, float]:
        step = self.engine.step
        return _audited_tail(
            tracer, self.sim.engine, lambda: [step() for _ in range(AUDITED_TAIL_CPS)]
        )


# ----------------------------------------------------------------------
class MountCycle:
    """Figure 10(B) shape: many large FlexVols on one SSD group, mounted
    through TopAA and through the bitmap walk, each followed by a CP."""

    name = "mount_cycle"
    FIRST_CP_BLOCKS = 128

    def build(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.cycles = 6 if smoke else 60
        self.work = 2 * self.cycles
        self.n_vols = 8 if smoke else 32
        virtual = 32_768 * (4 if smoke else 32)
        spec = AggregateSpec(
            tiers=(
                TierSpec(label="ssd", media="ssd", ndata=4,
                         blocks_per_disk=131_072, stripes_per_aa=2048),
            ),
            volumes=tuple(
                VolumeDecl(f"vol{i}", logical_blocks=1024, virtual_blocks=virtual)
                for i in range(self.n_vols)
            ),
        )
        self.sim = WaflSim.build(spec, seed=11)
        writes = {name: np.arange(256) for name in self.sim.vols}
        self.sim.engine.run_cp(CPBatch(writes=writes, ops=256 * self.n_vols))

    def prepare(self) -> int:
        # The first CP after each mount writes to one volume (round
        # robin), which keeps it near 15% of a cycle; writing all 32
        # makes the CP half of every cycle and the mount path hard to see.
        rng = np.random.default_rng(self.seed)
        names = list(self.sim.vols)
        self.batches = [
            CPBatch(
                writes={names[i % self.n_vols]: rng.integers(0, 1024, size=self.FIRST_CP_BLOCKS)},
                ops=self.FIRST_CP_BLOCKS,
            )
            for i in range(self.work)
        ]
        return self.work * self.FIRST_CP_BLOCKS

    def run(self, watch: Stopwatch) -> list[Segment]:
        sim = self.sim
        segments: list[Segment] = []
        self.modeled_ms = {"topaa": [], "walk": []}
        self.unclean = 0
        phases = (("topaa", self.batches[: self.cycles]), ("walk", self.batches[self.cycles :]))
        for label, batches in phases:
            use_topaa = label == "topaa"
            for batch in batches:
                watch.start()
                image = export_topaa(sim) if use_topaa else None
                report = simulate_mount(sim, image)
                stats = sim.engine.run_cp(batch)
                segments.append(Segment(label, 1, watch.stop()))
                self.modeled_ms[label].append(
                    (report.modeled_read_us + stats.device_busy_us + stats.cpu_us / CORES) / 1000.0
                )
                if report.used_topaa != use_topaa or report.fallbacks or report.repairs:
                    self.unclean += 1
                if use_topaa:
                    # WAFL's background scan completes the seeded caches
                    # before the next failover; it is not part of
                    # time-to-first-CP, so it is not timed.
                    background_rebuild(sim)
        return segments

    def finish(self) -> Outcome:
        out = Outcome(attempted=self.work, failed=self.unclean)
        if self.unclean:
            out.failures.append(f"{self.unclean} mounts fell back or needed repair")
        _sim_checks(out, self.sim)
        out.sim["sim_mount_ms"] = float(np.mean(self.modeled_ms["topaa"]))
        out.sim["fs.mount.sim_walk_ms"] = float(np.mean(self.modeled_ms["walk"]))
        out.payload["free_count"] = int(self.sim.store.free_count)
        return out


# ----------------------------------------------------------------------
class FleetEpochs:
    """Cluster orchestration: schedule + evaluate through the process
    pool, then one in-process rebalance with a live migration."""

    name = "fleet_epochs"

    def build(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.n_shards = 2 if smoke else 8
        self.rebalance_shards = min(4, self.n_shards)
        self.workers = min(2, os.cpu_count() or 1)
        self.specs = make_shard_specs(self.n_shards, seed=77)
        # The fleet's set-up cost: every shard built, filled and
        # calibrated once (a zero-epoch round) in this process.  The
        # same round through the pool is schedule()'s first step, so it
        # is in the timed phase; timed as a set-up it reads 0.05-0.12 s
        # depending on how the two forks land, too jittery to gate on.
        self.cluster = Cluster(self.specs, workers=1, audit=False)
        self.cluster.current_stats(0)
        self.cluster.workers = self.workers
        rounds = self.cluster.config.cluster.rounds
        # schedule() replays 0, 1, .. rounds epochs on every shard (each
        # round rebuilds from scratch); evaluate() replays `rounds` more.
        self.epochs = {
            "schedule": self.n_shards * rounds * (rounds + 1) // 2,
            "evaluate": self.n_shards * rounds,
            "rebalance": self.rebalance_shards * 2,
        }
        self.work = sum(self.epochs.values())

    def prepare(self) -> int:
        self.requests = noisy_fleet_requests(
            3 * self.n_shards, seed=derive_seed(self.seed, "fleet")
        )
        return 0

    def run(self, watch: Stopwatch) -> list[Segment]:
        watch.start()
        self.scheduled = self.cluster.schedule(self.requests)
        self.schedule_s = watch.stop()
        watch.start()
        self.evaluated = self.cluster.evaluate(self.scheduled.epochs)
        self.pooled_evaluate_s = watch.stop()
        watch.start()
        # run_rebalance() draws its testbed and its tenants from one
        # seed, so like every testbed seed it is fixed: with --seed the
        # volume that migrates, and so the cost, changed 2x.
        self.rebalance = run_rebalance(n_shards=self.rebalance_shards, seed=77)
        rebalance_s = watch.stop()
        return [
            Segment("schedule", self.epochs["schedule"], self.schedule_s),
            Segment("evaluate", self.epochs["evaluate"], self.pooled_evaluate_s),
            Segment("rebalance", self.epochs["rebalance"], rebalance_s),
        ]

    def finish(self) -> Outcome:
        out = Outcome(attempted=self.work)
        # The same tasks once more in this process: the fleet digest
        # must not depend on the worker count, and the traced pass gets
        # its per-shard spans from here.
        self.cluster.workers = 1
        t0 = perf()
        serial = self.cluster.evaluate(self.scheduled.epochs)
        serial_s = perf() - t0
        self.cluster.workers = self.workers
        out.check("digest schedule == evaluate", self.scheduled.digest == self.evaluated.digest)
        out.check("digest workers=1 == pooled", serial.digest == self.evaluated.digest)
        mig = self.rebalance["migration"]
        out.check(
            "migration copied == freed",
            mig["blocks_copied"] == mig["blocks_freed"] and mig["blocks_copied"] > 0,
        )
        out.check("migration iron clean", mig["iron_findings"] == 0)
        victims = [r.name for r in self.requests if r.profile == "victim"]
        p99s = [
            self.evaluated.tenant_p99_ms[v] for v in victims
            if v in self.evaluated.tenant_p99_ms
        ]
        out.sim["sim_victim_p99_ms"] = float(np.mean(p99s)) if p99s else 0.0
        out.payload.update(
            digest=self.evaluated.digest,
            placements=self.evaluated.as_dict()["placements"],
            rebalance=self.rebalance,
        )
        out.counters.update({
            "cluster.scheduler.rejections": sum(
                len(ids) for d in self.cluster.decisions for ids in d.rejected.values()
            ),
            "cluster.pool.wall_s": self.schedule_s + self.pooled_evaluate_s,
            "cluster.pool.efficiency": serial_s / (self.workers * self.pooled_evaluate_s),
            "cluster.pool.payload_bytes": sum(
                len(pickle.dumps(p)) for p in self.evaluated.payloads.values()
            ),
            "cluster.pool.replayed_epochs": self.epochs["schedule"] + self.epochs["evaluate"],
            "cluster.migration.blocks_copied": mig["blocks_copied"],
        })
        return out


# ----------------------------------------------------------------------
class CacheScale:
    """The AACache protocol driven directly at the paper's scale: an
    HBPS cache over 2^20 AAs and a heap cache over 2^16.  In every
    integrated workload cache maintenance is noise by design; here it
    is most of the work."""

    name = "cache_scale"
    MAX_SCORE = 32_768
    SELECTS = 8
    CHANGES = 2000
    LABELS = ("hbps", "heap")

    def build(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.rounds = 100 if smoke else 400
        self.work = 2 * self.rounds
        sizes = (2**14, 2**12) if smoke else (2**20, 2**16)
        rng = np.random.default_rng(4242)
        self.scores = [rng.integers(0, self.MAX_SCORE + 1, size=n) for n in sizes]
        self.caches = [
            RAIDAgnosticAACache(sizes[0], self.MAX_SCORE, self.scores[0]),
            RAIDAwareAACache(sizes[1], self.scores[1]),
        ]

    def prepare(self) -> int:
        rng = np.random.default_rng(self.seed)
        shape = (self.rounds, self.CHANGES)
        self.plans = [
            (rng.integers(0, s.size, size=shape), rng.integers(0, self.MAX_SCORE + 1, size=shape))
            for s in self.scores
        ]
        return 0

    def _round_changes(self, scores, aas, news, selected):
        """One CP-round's ``(aa, old, new)`` transitions — the seeded
        changes (distinct AAs, none checked out) plus each selected AA
        coming back half consumed — and the selected AAs whose score did
        not move, which go back by hand."""
        aas, first = np.unique(aas, return_index=True)
        news = news[first]
        sel = np.asarray(selected, dtype=np.int64)
        keep = ~np.isin(aas, sel)
        aas = np.concatenate((aas[keep], sel))
        news = np.concatenate((news[keep], scores[sel] // 2))
        olds = scores[aas]
        moved = olds != news
        scores[aas] = news
        changes = list(zip(aas[moved].tolist(), olds[moved].tolist(), news[moved].tolist()))
        stuck = sel[~moved[aas.size - sel.size :]]
        return changes, stuck.tolist()

    def _drive(self, watch, cache, scores, plan, label) -> list[Segment]:
        """``rounds`` CP-rounds: check out 8 AAs, absorb ~2000 score
        changes, refill when the list runs dry.  Only the protocol calls
        are timed."""
        segments: list[Segment] = []
        per_segment = max(self.rounds // 40, 1)
        wall, ops = 0.0, 0
        for r in range(self.rounds):
            watch.start()
            selected = [cache.select() for _ in range(self.SELECTS)]
            wall += watch.stop()
            selected = [aa for aa in selected if aa is not None]
            changes, stuck = self._round_changes(scores, plan[0][r], plan[1][r], selected)
            watch.start()
            for aa in stuck:
                cache.invalidate(aa, int(scores[aa]))
            cache.consume(changes)
            if cache.needs_refill:
                cache.refill(scores)
                self.refills += 1
            wall += watch.stop()
            ops += self.SELECTS + len(changes)
            if (r + 1) % per_segment == 0 or r + 1 == self.rounds:
                segments.append(Segment(label, ops, wall))
                wall, ops = 0.0, 0
        return segments

    def run(self, watch: Stopwatch) -> list[Segment]:
        self.refills = 0
        segments: list[Segment] = []
        for cache, scores, plan, label in zip(self.caches, self.scores, self.plans, self.LABELS):
            segments += self._drive(watch, cache, scores, plan, label)
        return segments

    def finish(self) -> Outcome:
        out = Outcome(attempted=self.work)
        hbps_cache, heap = self.caches
        for cache, label in zip(self.caches, self.LABELS):
            out.check(f"{label}.check_invariants", _holds(cache.check_invariants))
            out.check(f"{label}: nothing left checked out", not cache.checked_out)
        out.check("heap scores == driver scores", np.array_equal(heap.scores_view, self.scores[1]))
        out.check("hbps tracks every AA", hbps_cache.hbps.total_count == self.scores[0].size)
        out.payload.update(
            hbps=hbps_cache.stats(),
            heap=heap.stats(),
            score_sums=[int(s.sum()) for s in self.scores],
        )
        out.counters.update({
            "core.cache.maintenance_ops": sum(c.maintenance_ops for c in self.caches),
            "core.cache.refills": self.refills,
        })
        return out

    def extras(self, tracer) -> dict[str, float]:
        """TopAA round-trips of the big HBPS cache, and the
        useful-outcome ratio of ``select()`` against the true best."""
        hbps_cache = self.caches[0]
        for _ in range(20):
            load_hbps_cache(serialize_hbps_cache(hbps_cache), hbps_cache.num_aas)
        got = best = 0
        for cache, scores in zip(self.caches, self.scores):
            for _ in range(64):
                aa = cache.select()
                if aa is None:
                    break
                got += int(scores[aa])
                best += int(scores.max())
                cache.invalidate(aa, int(scores[aa]))
        return {"core.cache.selected_vs_best": got / best if best else 0.0}


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (OverwriteSSD, ChurnTiered, TrafficNoisy, MountCycle, FleetEpochs, CacheScale)
}
