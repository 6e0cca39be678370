"""The benchmark's vocabulary: workloads, end-to-end and per-layer
metric names with unit and direction.

``BENCHMARK.json`` at the repo root lists exactly these names (the
test suite checks the two against each other); everything the
benchmark prints is keyed by them.  Clock convention: a name starting
``sim_`` (or ending ``.sim_walk_ms``) is *simulated* — modelled
hardware, exact for a seed — everything else is host time or memory.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Metric",
    "WORKLOADS",
    "END_TO_END",
    "LAYERS",
    "PER_LAYER",
    "KERNELS",
    "SIM_METRICS",
    "ALIASES",
    "DEFAULT_SEED",
    "REPEATS",
]

DEFAULT_SEED = 1
#: Child runs per workload in ``python -m perfbench run`` (the fleet
#: workload is ~2x as long per iteration, so it gets fewer).
REPEATS = {"default": 5, "fleet_epochs": 3}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: End-to-end only: share of the parent's median a change may lose.
    bound: float | None = None


#: name -> (unit of work counted by ``throughput``, why it exists).
WORKLOADS: dict[str, tuple[str, str]] = {
    "overwrite_ssd": (
        "CP",
        "Paper 4.1 testbed (aged all-SSD RAID-4, 8 KiB random overwrites): "
        "the CP hot path; work unit = CP, 200 timed CPs per iteration",
    ),
    "churn_tiered": (
        "CP",
        "3-tier SSD/HDD/SMR+AZCS aggregate with file deletes, sequential "
        "chains and snapshot-pinned frees: the same CP pipeline used "
        "differently; work unit = CP, 210 per iteration",
    ),
    "traffic_noisy": (
        "client op",
        "noisy-neighbor scenario, fixed 120 CPs: the traffic engine does most "
        "of the work, the CP pipeline little; work unit = client op "
        "(about 1 M per iteration)",
    ),
    "mount_cycle": (
        "mount cycle",
        "32 FlexVols x 1 Mi virtual blocks, 60 TopAA + 60 bitmap-walk mounts "
        "each with a first CP: TopAA/recovery path; work unit = mount cycle",
    ),
    "fleet_epochs": (
        "shard-epoch",
        "8 shards x 3 tenants scheduled through a process pool of min(2,nproc) "
        "workers, then a live rebalance: cluster orchestration; work unit = "
        "shard-epoch",
    ),
    "cache_scale": (
        "cache op",
        "no simulator: HBPS cache at 2^20 AAs and heap cache at 2^16 driven "
        "through the AACache protocol, where cache maintenance is most of the "
        "work; work unit = select or score change",
    ),
}

#: What the harness-neutral ``throughput`` is called per workload in the
#: issue's vocabulary (printed beside it by ``python -m perfbench``).
ALIASES: dict[str, str] = {
    "overwrite_ssd": "cps_per_s",
    "churn_tiered": "cps_per_s",
    "traffic_noisy": "ops_per_s",
    "mount_cycle": "mounts_per_s",
    "fleet_epochs": "epochs_per_s",
    "cache_scale": "cache_ops_per_s",
}

END_TO_END: tuple[Metric, ...] = (
    Metric("throughput", "1/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
)

#: Layer = module name.  Every layer gets ``<layer>.calls`` and
#: ``<layer>.self_s``.
LAYERS: tuple[str, ...] = (
    "workloads",
    "fs.cp",
    "fs.flexvol",
    "fs.aggregate",
    "tiering",
    "core.allocator",
    "core.cache",
    "core.score",
    "core.delayed_frees",
    "bitmap",
    "raid",
    "devices.ssd",
    "devices.hdd",
    "devices.smr",
    "fs.azcs",
    "traffic",
    "fs.mount",
    "core.topaa",
    "cluster.scheduler",
    "cluster.shard",
    "cluster.pool",
    "cluster.migration",
    "analysis.auditor",
    "fs.iron",
)

#: Extra counters per layer: (name, unit, better).
_EXTRA: tuple[tuple[str, str, str], ...] = (
    ("workloads.blocks_generated", "blocks", "lower"),
    ("fs.cp.wall_ms_p50", "ms", "lower"),
    ("fs.cp.wall_ms_p95", "ms", "lower"),
    ("fs.flexvol.blocks_staged", "blocks", "lower"),
    ("fs.flexvol.blocks_deleted", "blocks", "lower"),
    ("fs.aggregate.blocks_written", "blocks", "lower"),
    ("fs.aggregate.blocks_freed", "blocks", "lower"),
    ("fs.aggregate.price_self_s", "s", "lower"),
    ("fs.aggregate.frees_self_s", "s", "lower"),
    ("tiering.blocks_placed", "blocks", "lower"),
    ("core.allocator.blocks_allocated", "blocks", "lower"),
    ("core.allocator.aa_switches", "count", "lower"),
    ("core.allocator.blocks_per_switch", "blocks", "higher"),
    ("core.cache.maintenance_ops", "count", "lower"),
    ("core.cache.refills", "count", "lower"),
    ("core.cache.selected_vs_best", "ratio", "higher"),
    ("core.score.changes", "count", "lower"),
    ("core.delayed_frees.blocks_applied", "blocks", "lower"),
    ("core.delayed_frees.pending_peak", "blocks", "lower"),
    ("bitmap.bits_flipped", "count", "lower"),
    ("bitmap.metafile_blocks_dirtied", "blocks", "lower"),
    ("bitmap.scan_blocks_read", "blocks", "lower"),
    ("raid.stripes", "count", "lower"),
    ("raid.full_stripe_frac", "ratio", "higher"),
    ("raid.parity_reads", "blocks", "lower"),
    ("devices.ssd.blocks_written", "blocks", "lower"),
    ("devices.hdd.blocks_written", "blocks", "lower"),
    ("devices.smr.blocks_written", "blocks", "lower"),
    ("devices.ssd.write_amp", "ratio", "lower"),
    ("devices.smr.rewrites", "count", "lower"),
    ("devices.hdd.seeks", "count", "lower"),
    ("fs.azcs.blocks_expanded", "blocks", "lower"),
    ("traffic.arrivals", "count", "higher"),
    ("traffic.admitted", "count", "higher"),
    ("traffic.rejected_frac", "ratio", "lower"),
    ("traffic.backlog_peak", "count", "lower"),
    ("traffic.summary_s", "s", "lower"),
    ("traffic.cp_share", "ratio", "lower"),
    ("fs.mount.blocks_read", "blocks", "lower"),
    ("fs.mount.fallbacks", "count", "lower"),
    ("fs.mount.sim_walk_ms", "ms", "lower"),
    ("core.topaa.bytes", "bytes", "lower"),
    ("cluster.scheduler.rejections", "count", "lower"),
    ("cluster.shard.build_s", "s", "lower"),
    ("cluster.shard.epoch_s", "s", "lower"),
    ("cluster.pool.wall_s", "s", "lower"),
    ("cluster.pool.efficiency", "ratio", "higher"),
    ("cluster.pool.payload_bytes", "bytes", "lower"),
    ("cluster.pool.replayed_epochs", "count", "lower"),
    ("cluster.migration.blocks_copied", "blocks", "lower"),
    ("analysis.auditor.overhead_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

#: Fixed-input microbenchmarks run by ``cache_scale`` (ROADMAP 1(c)).
KERNELS: tuple[str, ...] = (
    "core.hbps.update_per_s",
    "core.hbps.pop_insert_per_s",
    "core.hbps.rebuild_per_s",
    "core.heap_cache.apply_per_s",
    "core.heap_cache.select_per_s",
    "bitmap.free_in_range_per_s",
    "bitmap.counts_per_chunk_per_s",
    "bitmap.allocate_free_per_s",
    "raid.analyze_blocks_per_s",
    "devices.ssd.write_blocks_per_s",
)

#: Simulated outputs (exact for a seed; what the allocation policy is
#: for).  Zero on workloads they do not apply to.
SIM_METRICS: tuple[Metric, ...] = (
    Metric("sim_capacity_ops", "1/s", "higher"),
    Metric("sim_write_amp", "ratio", "lower"),
    Metric("sim_selected_free", "ratio", "higher"),
    Metric("sim_victim_p99_ms", "ms", "lower"),
    Metric("sim_mount_ms", "ms", "lower"),
)

PER_LAYER: tuple[Metric, ...] = (
    tuple(
        m
        for layer in LAYERS
        for m in (
            Metric(f"{layer}.calls", "count", "lower"),
            Metric(f"{layer}.self_s", "s", "lower"),
        )
    )
    + tuple(Metric(*e) for e in _EXTRA)
    + tuple(Metric(k, "1/s", "higher") for k in KERNELS)
    + SIM_METRICS
)
