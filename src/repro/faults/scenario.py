"""Scripted chaos scenarios: inject, run CPs, scrub, repair, report.

A :class:`ChaosScenario` is a seeded script of faults against the CP
clock.  :func:`run_chaos` executes it end-to-end:

1. build (or take) a simulator, age it, and attach the injector;
2. export the TopAA image, apply pre-mount corruption, and mount —
   corrupt pages fall back per-filesystem to the bitmap walk;
3. run CPs, applying scheduled faults at each boundary: disk
   failures/replacements, silent bitmap bit-flips, armed read faults;
4. after any bitmap damage, scrub (``iron.scan``), escalate the
   damaged instances into degraded allocation with a scoped repair,
   keep serving writes from the bitmap walk, then rebuild caches;
5. final scrub + full consistency verification.

The run is deterministic: every random draw flows from the scenario
seed, so two runs with the same seed produce identical
:class:`RecoveryMetrics` — which is how the recovery path itself is
regression-tested.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..common.config import AggregateSpec, TierSpec, VolumeDecl
from ..common.errors import AllocationError, OutOfSpaceError
from ..core.policies import BitmapWalkSource
from ..fs.aggregate import RAIDStore
from ..fs.filesystem import WaflSim
from ..fs.iron import scan
from ..fs.mount import export_topaa, simulate_mount
from ..workloads import RandomOverwriteWorkload, fill_volumes
from .injector import FaultInjector, FaultKind, ScheduledFault, corrupt_bytes, flip_bitmap_bits
from .recovery import attach_everywhere, degraded_instances, escalate, exit_degraded, instances

__all__ = ["ChaosScenario", "RecoveryMetrics", "default_scenario", "run_chaos"]


@dataclass
class ChaosScenario:
    """A deterministic fault script for one chaos run."""

    seed: int = 1234
    #: Consistency points to run after the (possibly degraded) mount.
    n_cps: int = 12
    ops_per_cp: int = 2048
    #: CPs to keep serving from the bitmap walk after an escalation
    #: before caches are rebuilt (models the rebuild window).
    degraded_window: int = 2
    #: The script (fires before the CP whose index matches ``at_cp``;
    #: ``at_cp <= 0`` fires before mount).
    faults: list[ScheduledFault] = field(default_factory=list)
    #: CPs of aging workload before the TopAA export/mount.
    warmup_cps: int = 6


@dataclass
class RecoveryMetrics:
    """Everything a chaos run measures; equal across same-seed runs."""

    cps_completed: int = 0
    #: Allocation requests that failed — the acceptance bar is zero.
    failed_allocations: int = 0
    #: CPs served while at least one file system was on the bitmap walk.
    degraded_cps: int = 0
    #: AAs handed out by bitmap-walk sources while degraded.
    degraded_selects: int = 0
    #: Bitmap bits scanned finding them (the degradation cost).
    walk_bits_scanned: int = 0
    #: Degraded-RAID accounting (charged into the latency model too).
    reconstruction_reads: int = 0
    degraded_stripes: int = 0
    blocks_reconstructed: int = 0
    disk_failures: int = 0
    disks_replaced: int = 0
    rebuild_us: float = 0.0
    #: Mount outcome: per-filesystem fallback reasons and retry count.
    mount_fallbacks: dict[str, str] = field(default_factory=dict)
    mount_repairs: list[str] = field(default_factory=list)
    transient_retries: int = 0
    #: Scrub outcome: findings detected (by kind) and repaired (by kind).
    findings_detected: dict[str, int] = field(default_factory=dict)
    findings_repaired: dict[str, int] = field(default_factory=dict)
    #: Instances escalated to scoped Iron repair, in order.
    escalations: list[str] = field(default_factory=list)
    #: Metafile blocks read rebuilding caches after degraded windows.
    rebuild_blocks_read: int = 0
    #: Final scrub found nothing.
    final_clean: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


def default_scenario(seed: int = 1234, *, quick: bool = False) -> ChaosScenario:
    """The acceptance scenario: a disk failure mid-workload, one
    corrupted TopAA page, and silent bitmap bit-flips on a volume and
    a RAID group — all recovered in one run."""
    n_cps = 8 if quick else 16
    ops = 1024 if quick else 2048
    sc = ChaosScenario(seed=seed, n_cps=n_cps, ops_per_cp=ops,
                       warmup_cps=3 if quick else 6)
    sc.faults = [
        # Pre-mount: corrupt volB's persisted TopAA page (16 bit flips).
        ScheduledFault(0, "vol:volB", FaultKind.TOPAA_CORRUPT, count=16),
        # Mid-workload: data disk 1 of group 0 dies ...
        ScheduledFault(n_cps // 3, "group:0", FaultKind.DISK_FAIL, arg=1),
        # ... and is replaced (rebuilt from parity) later.
        ScheduledFault((2 * n_cps) // 3, "group:0", FaultKind.DISK_REPLACE, arg=1),
        # Silent corruption: lost frees on volA (leaked), torn bitmap
        # write on group 0 (corrupt).
        ScheduledFault(n_cps // 2, "vol:volA", FaultKind.LOST_WRITE, count=48),
        ScheduledFault(n_cps // 2, "group:0", FaultKind.TORN_WRITE, count=48),
    ]
    return sc


def _default_sim(seed: int) -> WaflSim:
    tier = TierSpec(
        label="ssd", media="ssd", ndata=3, blocks_per_disk=32768,
        stripes_per_aa=2048,
    )
    phys = 3 * 32768
    spec = AggregateSpec(
        tiers=(tier,),
        volumes=(
            VolumeDecl("volA", logical_blocks=phys // 4),
            VolumeDecl("volB", logical_blocks=phys // 8),
        ),
    )
    return WaflSim.build(spec, seed=seed)


def _group_index(target: str) -> int:
    if not target.startswith("group:"):
        raise ValueError(f"disk faults need a group target, got {target!r}")
    return int(target.split(":", 1)[1])


def _merge(into: dict[str, int], findings) -> None:
    for f in findings:
        into[f.kind] = into.get(f.kind, 0) + f.count


def _harvest_walk_stats(sim: WaflSim, metrics: RecoveryMetrics) -> None:
    """Collect bitmap-walk counters before the sources are replaced."""
    for fs in instances(sim).values():
        src = getattr(fs, "source", None)
        if isinstance(src, BitmapWalkSource):
            metrics.degraded_selects += src.selects
            metrics.walk_bits_scanned += src.bits_scanned
            src.selects = 0
            src.bits_scanned = 0


def _apply_fault(
    sim: WaflSim,
    injector: FaultInjector,
    fault: ScheduledFault,
    metrics: RecoveryMetrics,
    damaged: set[str],
) -> None:
    store = sim.store
    kind = fault.kind
    if kind == FaultKind.DISK_FAIL:
        if not isinstance(store, RAIDStore):
            raise ValueError("disk-fail requires a RAID store")
        store.fail_disk(_group_index(fault.target), fault.arg or 0)
        metrics.disk_failures += 1
    elif kind == FaultKind.DISK_REPLACE:
        if not isinstance(store, RAIDStore):
            raise ValueError("disk-replace requires a RAID store")
        g = store.groups[_group_index(fault.target)]
        metrics.rebuild_us += g.replace_disk(fault.arg or 0)
        metrics.disks_replaced += 1
    elif kind in (FaultKind.TORN_WRITE, FaultKind.LOST_WRITE):
        fs = instances(sim).get(fault.target)
        if fs is None:
            raise ValueError(f"unknown fault target {fault.target!r}")
        direction = "set" if kind == FaultKind.LOST_WRITE else "clear"
        flip_bitmap_bits(fs.metafile.bitmap, fault.count, injector.rng, direction)
        damaged.add(fault.target)
    else:
        # Read-path faults are delivered by arming the injector; the
        # stack consumes them on its next read of that target.
        injector.arm(fault.target, kind, fault.count)


def run_chaos(
    scenario: ChaosScenario | None = None,
    sim: WaflSim | None = None,
) -> tuple[RecoveryMetrics, WaflSim]:
    """Execute a chaos scenario end-to-end; returns (metrics, sim)."""
    sc = scenario or default_scenario()
    metrics = RecoveryMetrics()
    if sim is None:
        sim = _default_sim(sc.seed)
        fill_volumes(sim, ops_per_cp=8192)
        if sc.warmup_cps:
            warm = RandomOverwriteWorkload(sim, ops_per_cp=sc.ops_per_cp, seed=sc.seed)
            sim.run(warm, sc.warmup_cps)

    injector = FaultInjector(sc.seed)
    attach_everywhere(sim, injector)
    for f in sc.faults:
        injector.schedule(f.at_cp, f.target, f.kind, f.count, f.arg)

    # ---- mount phase: TopAA export, pre-mount corruption, mount ------
    image = export_topaa(sim)
    damaged: set[str] = set()
    for f in injector.due(0):
        if f.kind == FaultKind.TOPAA_CORRUPT:
            page = image.page_for(f.target)
            if page is not None:
                image.put(f.target, corrupt_bytes(page, f.count, injector.rng))
        else:
            _apply_fault(sim, injector, f, metrics, damaged)
    mount = simulate_mount(sim, image)
    metrics.mount_fallbacks = dict(mount.fallbacks)
    metrics.mount_repairs = list(mount.repairs)
    metrics.transient_retries += mount.transient_retries

    # ---- CP loop ------------------------------------------------------
    workload = iter(RandomOverwriteWorkload(sim, ops_per_cp=sc.ops_per_cp, seed=sc.seed + 1))
    cp_start = len(sim.metrics.cps)
    exit_at: int | None = None
    for cp in range(1, sc.n_cps + 1):
        for f in injector.due(cp):
            _apply_fault(sim, injector, f, metrics, damaged)
        if damaged:
            # Scrub: detect the silent damage, escalate exactly the
            # damaged instances, repair their bitmaps in place.
            report = scan(sim)
            _merge(metrics.findings_detected, report.findings)
            wheres = sorted(report.by_where())
            repaired = escalate(sim, wheres)
            _merge(metrics.findings_repaired, repaired.findings)
            metrics.escalations.extend(wheres)
            damaged.clear()
            exit_at = cp + sc.degraded_window
        try:
            sim.engine.run_cp(next(workload))
            metrics.cps_completed += 1
        except (AllocationError, OutOfSpaceError):
            metrics.failed_allocations += 1
        if degraded_instances(sim):
            metrics.degraded_cps += 1
            if exit_at is not None and cp >= exit_at:
                _harvest_walk_stats(sim, metrics)
                metrics.rebuild_blocks_read += exit_degraded(sim)
                exit_at = None

    if degraded_instances(sim):
        _harvest_walk_stats(sim, metrics)
        metrics.rebuild_blocks_read += exit_degraded(sim)

    # ---- final accounting --------------------------------------------
    for stats in sim.metrics.cps[cp_start:]:
        metrics.reconstruction_reads += stats.reconstruction_reads
        metrics.degraded_stripes += stats.degraded_stripes
    if isinstance(sim.store, RAIDStore):
        metrics.blocks_reconstructed = sum(
            g.blocks_reconstructed for g in sim.store.groups
        )
    final = scan(sim)
    metrics.final_clean = final.clean
    sim.verify_consistency()
    return metrics, sim
