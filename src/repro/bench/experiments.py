"""Library-level experiment runners for every evaluation figure.

Each ``run_figN`` function reproduces one figure of the paper's
section 4 end to end — building the workload and system the figure
used, measuring the quantities it reports, and returning both the raw
results and formatted text tables.  The pytest benchmarks under
``benchmarks/`` call these runners and assert the paper's shape claims;
the command-line interface (``python -m repro``) calls them directly.

``quick=True`` shrinks the configurations for interactive use; the
shipped EXPERIMENTS.md numbers come from the full-size runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.config import AggregateSpec, TierSpec, VolumeDecl
from ..core import aa_size_for_smr
from ..devices.smr import SMRConfig
from ..fs import (
    CPBatch,
    PolicyKind,
    WaflSim,
    export_topaa,
    simulate_mount,
)
from ..raid import RAIDGeometry
from ..sim import system_curve
from ..workloads import OLTPWorkload, SequentialWriteWorkload, fill_volumes
from ..workloads.aging import reset_measurement_state
from .harness import (
    CORES,
    NCLIENTS,
    ConfigResult,
    build_aged_ssd_sim,
    fmt_table,
    measure_random_overwrite,
    popcount_audit,
    set_bitmap_checks,
)

__all__ = [
    "FIG6_CONFIGS",
    "FIG6_OFFERED",
    "run_fig6",
    "run_fig6_config",
    "fig6_tables",
    "Fig7Result",
    "run_fig7",
    "fig7_tables",
    "FIG8_SIZINGS",
    "FIG8_ERASE_UNIT",
    "FIG8_OFFERED",
    "run_fig8",
    "run_fig8_config",
    "fig8_tables",
    "FIG9_BLOCKS_PER_DISK",
    "FIG9_ZONE_BLOCKS",
    "FIG9_OFFERED",
    "FIG9_SIZINGS",
    "run_fig9",
    "run_fig9_config",
    "fig9_tables",
    "run_fig10",
    "run_fig10_size",
    "run_fig10_count",
    "fig10_tables",
]

# ----------------------------------------------------------------------
# Figure 6: AA cache benefit (section 4.1)
# ----------------------------------------------------------------------

FIG6_CONFIGS: dict[str, tuple[PolicyKind, PolicyKind]] = {
    "both caches": (PolicyKind.CACHE, PolicyKind.CACHE),
    "FlexVol AA cache": (PolicyKind.RANDOM, PolicyKind.CACHE),
    "Aggregate AA cache": (PolicyKind.CACHE, PolicyKind.RANDOM),
    "neither (baseline)": (PolicyKind.RANDOM, PolicyKind.RANDOM),
}

#: Offered load sweep, ops/s per client (the figure's x axis).
FIG6_OFFERED = np.linspace(1000, 12000, 12)


def run_fig6_config(
    label: str, *, quick: bool = False, seed: int = 42
) -> ConfigResult:
    """Age and measure one Figure 6 configuration (a runner work unit)."""
    ap, vp = FIG6_CONFIGS[label]
    sim = build_aged_ssd_sim(
        aggregate_policy=ap,
        vol_policy=vp,
        blocks_per_disk=65_536 if quick else 131_072,
        churn_factor=1.0 if quick else 2.0,
        seed=seed,
    )
    # simlint: disable=F804 — fig6 measures the allocator under a canonical
    # workload seed (777) so curves differ only in the config axis; threading
    # the sweep seed would change the checked-in fig6 baselines
    return measure_random_overwrite(sim, label, n_cps=15 if quick else 40)


def run_fig6(*, quick: bool = False, seed: int = 42) -> dict[str, ConfigResult]:
    """Age and measure all four Figure 6 configurations."""
    return {
        label: run_fig6_config(label, quick=quick, seed=seed)
        for label in FIG6_CONFIGS
    }


def fig6_tables(results: dict[str, ConfigResult]) -> list[str]:
    """Format the Figure 6 series and the section 4.1 quantities."""
    rows = []
    for label, r in results.items():
        for p in r.curve(FIG6_OFFERED):
            rows.append(
                [label, p.offered_per_client, p.achieved_per_client, p.latency_ms]
            )
    t1 = fmt_table(
        ["config", "offered/client (ops/s)", "achieved/client (ops/s)", "latency (ms)"],
        rows,
        title="Figure 6: latency vs achieved throughput "
        "(8KiB random overwrites, aged all-SSD)",
    )
    t2 = fmt_table(
        [
            "config",
            "agg selected AA free",
            "agg free",
            "vol selected AA free",
            "SSD write amp",
            "CPU us/op",
            "device us/op",
            "peak ops/s",
        ],
        [
            [
                r.label,
                r.agg_selected_free,
                r.aggregate_free,
                r.vol_selected_free,
                r.write_amplification,
                r.cpu_us_per_op,
                r.device_us_per_op,
                r.capacity_ops,
            ]
            for r in results.values()
        ],
        title="Section 4.1 in-text quantities",
    )
    return [t1, t2]


# ----------------------------------------------------------------------
# Figure 7: imbalanced aging (section 4.2)
# ----------------------------------------------------------------------

FIG7_CLIENT_OPS_PER_SEC = 68_000
FIG7_N_GROUPS = 4
FIG7_AGED_GROUPS = (0, 1)


@dataclass
class Fig7Result:
    """Per-group accounting of the Figure 7 OLTP run."""

    blocks_per_disk: list[np.ndarray] = field(default_factory=list)
    tetrises: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    blocks: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    stripes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    partials: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    seconds: float = 0.0

    def aged(self) -> list[int]:
        return list(FIG7_AGED_GROUPS)

    def fresh(self) -> list[int]:
        return [g for g in range(FIG7_N_GROUPS) if g not in FIG7_AGED_GROUPS]


def _build_fig7_sim(seed: int = 24) -> WaflSim:
    spec = AggregateSpec(
        tiers=(
            TierSpec(
                label="hdd",
                media="hdd",
                n_groups=FIG7_N_GROUPS,
                ndata=4,
                blocks_per_disk=65536,
                stripes_per_aa=4096,
            ),
        ),
        volumes=(
            VolumeDecl("db", logical_blocks=100_000),
            VolumeDecl("log", logical_blocks=50_000),
        ),
    )
    sim = WaflSim.build(spec, seed=seed)
    # Age RG0/RG1: a random 50% of their blocks in use (static aging:
    # the blocks are not volume-mapped, mirroring the paper's old data
    # sitting untouched while OLTP traffic runs).
    rng = np.random.default_rng(seed)
    for gi in FIG7_AGED_GROUPS:
        g = sim.store.groups[gi]
        n = g.topology.nblocks
        taken = rng.choice(n, size=int(n * 0.5), replace=False)
        g.metafile.allocate(np.sort(taken))
        g.metafile.drain_dirty()
        g.keeper.recompute(g.metafile.bitmap)
        g.rebuild_cache(g.keeper.scores)
    fill_volumes(sim, ops_per_cp=16384, seed=seed + 1)
    reset_measurement_state(sim)
    set_bitmap_checks(sim, False)
    return sim


def run_fig7(*, quick: bool = False, seed: int = 24) -> Fig7Result:
    """Run the Figure 7 OLTP measurement with per-group capture."""
    ops_per_cp = 8192
    n_cps = 10 if quick else 30
    sim = _build_fig7_sim(seed)
    wl = OLTPWorkload(sim, ops_per_cp=ops_per_cp, read_fraction=0.65, seed=7)
    res = Fig7Result(
        blocks_per_disk=[np.zeros(4, dtype=np.int64) for _ in range(FIG7_N_GROUPS)],
        tetrises=np.zeros(FIG7_N_GROUPS, dtype=np.int64),
        blocks=np.zeros(FIG7_N_GROUPS, dtype=np.int64),
        stripes=np.zeros(FIG7_N_GROUPS, dtype=np.int64),
        partials=np.zeros(FIG7_N_GROUPS, dtype=np.int64),
        seconds=n_cps * ops_per_cp / FIG7_CLIENT_OPS_PER_SEC,
    )
    orig = sim.store.cp_boundary
    captured = []

    def wrapped():
        rep = orig()
        captured.append(rep)
        return rep

    sim.store.cp_boundary = wrapped
    it = iter(wl)
    for _ in range(n_cps):
        sim.engine.run_cp(next(it))
    popcount_audit(sim)
    for rep in captured:
        for gi, grp in enumerate(rep.groups):
            res.blocks_per_disk[gi] += grp.blocks_per_disk
            res.tetrises[gi] += grp.tetrises
            res.blocks[gi] += grp.blocks
            res.stripes[gi] += grp.stripes
            res.partials[gi] += grp.partial_stripes
    return res


def fig7_tables(res: Fig7Result) -> list[str]:
    rows = []
    for gi in range(FIG7_N_GROUPS):
        aged = "aged 50%" if gi in FIG7_AGED_GROUPS else "fresh"
        for di in range(4):
            rows.append(
                [f"RG{gi} ({aged})", f"disk{di}", res.blocks_per_disk[gi][di] / res.seconds]
            )
    t1 = fmt_table(
        ["RAID group", "disk", "blocks/s"],
        rows,
        title=(
            "Figure 7 (top): blocks/s per disk under OLTP at "
            f"{FIG7_CLIENT_OPS_PER_SEC} ops/s"
        ),
    )
    rows = [
        [
            f"RG{gi}",
            "aged 50%" if gi in FIG7_AGED_GROUPS else "fresh",
            res.tetrises[gi] / res.seconds,
            res.blocks[gi] / res.seconds,
            res.blocks[gi] / res.tetrises[gi] if res.tetrises[gi] else 0.0,
            res.partials[gi] / res.stripes[gi] if res.stripes[gi] else 0.0,
        ]
        for gi in range(FIG7_N_GROUPS)
    ]
    t2 = fmt_table(
        ["RAID group", "state", "tetrises/s", "blocks/s", "blocks/tetris",
         "partial stripe frac"],
        rows,
        title="Figure 7 (bottom): tetrises/s per RAID group",
    )
    return [t1, t2]


# ----------------------------------------------------------------------
# Figure 8: SSD AA sizing (section 4.3)
# ----------------------------------------------------------------------

#: FTL erase unit: a 64 MiB superblock.
FIG8_ERASE_UNIT = 16_384

FIG8_SIZINGS: dict[str, int] = {
    "HDD-sized AA (4k stripes)": 4096,
    "Large AA (2 erase units)": 2 * FIG8_ERASE_UNIT,
}

FIG8_OFFERED = np.linspace(1000, 10000, 10)


def run_fig8_config(
    label: str, *, quick: bool = False, seed: int = 99
) -> ConfigResult:
    """Age and measure one Figure 8 AA sizing (a runner work unit)."""
    sim = build_aged_ssd_sim(
        n_groups=1,
        ndata=3,
        blocks_per_disk=262_144 if quick else 524_288,
        stripes_per_aa=FIG8_SIZINGS[label],
        erase_block_blocks=FIG8_ERASE_UNIT,
        # Faster effective flash than the Fig 6 calibration: our
        # open-unit FTL overstates absolute write amplification (no
        # overprovisioned GC slack), so a paper-era program time
        # would make both configs purely WA-bound and exaggerate
        # the throughput ratio far past the paper's +26%.  The WA
        # *ratio* (the substantive claim) is parameter-free.
        program_us_per_block=1.8,
        fill_fraction=0.85,
        churn_factor=1.0,
        seed=seed,
    )
    # The paper's Figure 8 workload is 4 KiB random reads *and*
    # writes; read traffic is AA-size independent and keeps the
    # comparison in the mixed regime the paper measured.
    return measure_random_overwrite(
        sim, label, n_cps=12 if quick else 30, ops_per_cp=8192,
        read_fraction=0.55, blocks_per_op=2, seed=5,
    )


def run_fig8(*, quick: bool = False, seed: int = 99) -> dict[str, ConfigResult]:
    return {
        label: run_fig8_config(label, quick=quick, seed=seed)
        for label in FIG8_SIZINGS
    }


def fig8_tables(results: dict[str, ConfigResult]) -> list[str]:
    rows = []
    for label, r in results.items():
        for p in r.curve(FIG8_OFFERED):
            rows.append(
                [label, p.offered_per_client, p.achieved_per_client, p.latency_ms]
            )
    t1 = fmt_table(
        ["config", "offered/client (ops/s)", "achieved/client (ops/s)", "latency (ms)"],
        rows,
        title="Figure 8: latency vs achieved throughput, SSD AA sizing (aged to 85%)",
    )
    t2 = fmt_table(
        ["config", "write amp", "CPU us/op", "device us/op", "peak ops/s"],
        [
            [r.label, r.write_amplification, r.cpu_us_per_op,
             r.device_us_per_op, r.capacity_ops]
            for r in results.values()
        ],
        title="Section 4.3 SSD quantities",
    )
    return [t1, t2]


# ----------------------------------------------------------------------
# Figure 9: SMR AA sizing with AZCS (section 4.3)
# ----------------------------------------------------------------------

#: 63 AZCS payloads x 4096: admits both the misaligned 4k-stripe AA and
#: AZCS-aligned divisors.
FIG9_BLOCKS_PER_DISK = 63 * 4096
FIG9_ZONE_BLOCKS = 16384
FIG9_SMR_CFG = SMRConfig(zone_blocks=FIG9_ZONE_BLOCKS, rewrite_penalty_us=5000.0)
FIG9_OFFERED = np.linspace(2000, 30000, 15)


def fig9_aligned_size() -> int:
    g = RAIDGeometry(3, 1, FIG9_BLOCKS_PER_DISK)
    return aa_size_for_smr(g, FIG9_ZONE_BLOCKS, azcs=True).size


def _fig9_sizings() -> dict[str, int]:
    return {
        "HDD-sized AA (4k stripes)": 4096,
        "SMR AA (zone + AZCS aligned)": fig9_aligned_size(),
    }


#: Labels only (the aligned size needs a geometry computation).
FIG9_SIZINGS = ("HDD-sized AA (4k stripes)", "SMR AA (zone + AZCS aligned)")


def run_fig9_config(label: str, *, quick: bool = False, seed: int = 3) -> dict:
    """Run one Figure 9 AA sizing (a runner work unit)."""
    tier = TierSpec(
        label="smr",
        media="smr",
        ndata=3,
        blocks_per_disk=FIG9_BLOCKS_PER_DISK,
        stripes_per_aa=_fig9_sizings()[label],
        azcs=True,
        zone_blocks=FIG9_SMR_CFG.zone_blocks,
        rewrite_penalty_us=FIG9_SMR_CFG.rewrite_penalty_us,
    )
    sim = WaflSim.build(
        AggregateSpec(
            tiers=(tier,),
            volumes=(VolumeDecl("stream", logical_blocks=500_000),),
        ),
        seed=seed,
    )
    set_bitmap_checks(sim, False)
    wl = SequentialWriteWorkload(sim, ops_per_cp=8192, blocks_per_op=1, wrap=False)
    sim.run(wl, 10 if quick else 25)
    popcount_audit(sim)
    m = sim.metrics
    rewrites = sum(d.rewrites for g in sim.store.groups for d in g.devices)
    return {
        "label": label,
        "cpu": m.cpu_us_per_op,
        "dev": m.device_us_per_op,
        "rewrites": rewrites,
        "drive_mbps": m.total_physical_blocks * 4096 / 1e6
        / (m.total_device_busy_us / 1e6),
        "blocks": m.total_physical_blocks,
    }


def run_fig9(*, quick: bool = False, seed: int = 3) -> dict[str, dict]:
    return {
        label: run_fig9_config(label, quick=quick, seed=seed)
        for label in FIG9_SIZINGS
    }


def fig9_tables(results: dict[str, dict]) -> list[str]:
    rows = []
    for label, r in results.items():
        pts = system_curve(r["cpu"], r["dev"], FIG9_OFFERED, nclients=NCLIENTS,
                           cores=CORES)
        for p in pts:
            rows.append(
                [label, p.offered_per_client, p.achieved_per_client, p.latency_ms]
            )
    t1 = fmt_table(
        ["config", "offered/client (ops/s)", "achieved/client (ops/s)", "latency (ms)"],
        rows,
        title="Figure 9: latency vs achieved throughput (sequential writes, unaged SMR)",
    )
    t2 = fmt_table(
        ["config", "device us/op", "checksum-block rewrites", "drive MB/s"],
        [
            [r["label"], r["dev"], r["rewrites"], r["drive_mbps"]]
            for r in results.values()
        ],
        title="Section 4.3 SMR quantities",
    )
    return [t1, t2]


# ----------------------------------------------------------------------
# Figure 10: TopAA and mount time (section 4.4)
# ----------------------------------------------------------------------

FIG10_VOL_VIRTUAL_BLOCKS = 32768 * 32


def _build_fig10_sim(n_vols: int, vol_virtual_blocks: int) -> WaflSim:
    spec = AggregateSpec(
        tiers=(
            TierSpec(label="ssd", media="ssd", ndata=4,
                     blocks_per_disk=131072, stripes_per_aa=2048),
        ),
        volumes=tuple(
            VolumeDecl(f"vol{i}", logical_blocks=1024,
                       virtual_blocks=vol_virtual_blocks)
            for i in range(n_vols)
        ),
    )
    sim = WaflSim.build(spec, seed=11)
    writes = {f"vol{i}": np.arange(256) for i in range(n_vols)}
    sim.engine.run_cp(CPBatch(writes=writes, ops=256 * n_vols))
    return sim


def _fig10_first_cp_cost(sim: WaflSim, use_topaa: bool) -> dict:
    image = export_topaa(sim) if use_topaa else None
    rep = simulate_mount(sim, image)
    writes = {name: np.arange(128) for name in sim.vols}
    stats = sim.engine.run_cp(CPBatch(writes=writes, ops=128 * len(sim.vols)))
    return {
        "blocks_read": rep.blocks_read,
        "build_wall_ms": rep.build_wall_s * 1000,
        "modeled_ms": (rep.modeled_read_us + stats.device_busy_us + stats.cpu_us / CORES)
        / 1000.0,
    }


_fig10_warmed = False


def _fig10_warmup() -> None:
    """Untimed first-touch warmup for the fig10 wall clocks.

    The first ``simulate_mount`` in a fresh process pays one-time costs
    the later rows never see — lazy imports, the allocator growing its
    arenas, first-touch page faults on the freshly zeroed cache arrays
    — which used to land entirely on the sweep's first row and make its
    ``build_wall_ms`` an order-of-magnitude outlier.  One small
    build+mount per process (both the TopAA and bitmap-walk paths)
    absorbs those costs outside the timed region; the simulated metrics
    are untouched (the warmup sim is discarded).
    """
    global _fig10_warmed
    if _fig10_warmed:
        return
    _fig10_warmed = True
    # Fresh sim per mount path, exactly like the sweep rows (a second
    # mount on one sim would re-walk an already-consumed allocator).
    for use_topaa in (True, False):
        _fig10_first_cp_cost(_build_fig10_sim(2, 32768 * 4), use_topaa)


def run_fig10_size(*, quick: bool = False) -> tuple[list[list], dict]:
    """Figure 10(A): first-CP cost vs FlexVol size (a runner work unit)."""
    size_mults = (4, 16) if quick else (4, 8, 16, 32)
    _fig10_warmup()
    size_rows: list[list] = []
    size_series: dict = {}
    for mult in size_mults:
        virtual = 32768 * mult
        for use_topaa in (True, False):
            sim = _build_fig10_sim(8, virtual)
            cost = _fig10_first_cp_cost(sim, use_topaa)
            label = "TopAA" if use_topaa else "no TopAA"
            size_rows.append([f"{virtual} blk/vol", label, cost["blocks_read"],
                              cost["modeled_ms"], cost["build_wall_ms"]])
            size_series[(mult, use_topaa)] = cost
    return size_rows, size_series


def run_fig10_count(*, quick: bool = False) -> tuple[list[list], dict]:
    """Figure 10(B): first-CP cost vs FlexVol count (a runner work unit)."""
    counts = (4, 16) if quick else (4, 8, 16, 32)
    _fig10_warmup()
    count_rows: list[list] = []
    count_series: dict = {}
    for n_vols in counts:
        for use_topaa in (True, False):
            sim = _build_fig10_sim(n_vols, FIG10_VOL_VIRTUAL_BLOCKS)
            cost = _fig10_first_cp_cost(sim, use_topaa)
            label = "TopAA" if use_topaa else "no TopAA"
            count_rows.append([n_vols, label, cost["blocks_read"],
                               cost["modeled_ms"], cost["build_wall_ms"]])
            count_series[(n_vols, use_topaa)] = cost
    return count_rows, count_series


def run_fig10(*, quick: bool = False) -> tuple[list[list], dict, list[list], dict]:
    """Both Figure 10 sweeps: (size_rows, size_series, count_rows,
    count_series)."""
    size_rows, size_series = run_fig10_size(quick=quick)
    count_rows, count_series = run_fig10_count(quick=quick)
    return size_rows, size_series, count_rows, count_series


def fig10_tables(size_rows: list[list], count_rows: list[list]) -> list[str]:
    t1 = fmt_table(
        ["volume size", "mount path", "blocks read", "first-CP modeled (ms)",
         "cache-build wall (ms)"],
        size_rows,
        title="Figure 10(A): first CP time vs FlexVol size (8 volumes)",
    )
    t2 = fmt_table(
        ["volumes", "mount path", "blocks read", "first-CP modeled (ms)",
         "cache-build wall (ms)"],
        count_rows,
        title="Figure 10(B): first CP time vs number of FlexVols",
    )
    return [t1, t2]
