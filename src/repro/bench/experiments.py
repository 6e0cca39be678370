"""The experiment table: everything the repository runs, declared once.

:data:`EXPERIMENTS` holds one frozen :class:`~repro.bench.claims.
Experiment` per row — the paper's section 4 figures (this module), the
traffic, fault, crash, cluster, tier and audit drills
(:mod:`repro.bench.drills`) and the cache-overhead and ablation
measurements (:mod:`repro.bench.ablations`).  Everything else consumes
it: the bench runner plans and executes its units, ``repro <row>``
prints a row's tables and claims, ``repro bench`` sweeps and gates
them, ``repro trace <row> <unit>`` traces one unit, and the CLI's
subcommands and ``--experiments`` choices are its names.  Adding an entry here is the only edit a new experiment
needs.  ``bench`` is the top of the package DAG (simlint L201), so the
table imports every subsystem it runs statically.

``run(unit, quick=..., seed=...)`` builds the workload and system one
configuration used, measures it, and returns the *persisted*
representation ``{"metrics": ..., "timing": ...}``; ``tables`` and
``claims`` are pure functions of ``{unit: result document}``.  See
:mod:`repro.bench.claims` for the schema and which claims gate which runs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .. import obs
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
from ..traffic.scenarios import SUSTAINED, load_curve
from ..workloads import (
    OLTPWorkload,
    SequentialMix,
    SequentialWriteWorkload,
    UniformOverwriteMix,
    fill_volumes,
)
from ..workloads.aging import reset_measurement_state
from . import ablations, drills
from .claims import Claim, Experiment
from .harness import (
    CORES,
    ConfigResult,
    build_aged_ssd_sim,
    fill_group_statically,
    fmt_table,
    measure_random_overwrite,
    popcount_audit,
    set_bitmap_checks,
)

__all__ = ["Claim", "Experiment", "EXPERIMENTS"]


def _comparing(
    units, claims: Callable[[dict], list[Claim]]
) -> Callable[[dict], list[Claim]]:
    """Claims that compare ``units`` with each other: about a subset of
    them (``repro fig6 "both caches"``) there is nothing to claim."""
    return lambda results: claims(results) if set(units) <= set(results) else []


def _metrics(results: dict[str, dict]) -> dict[str, dict]:
    return {unit: res["metrics"] for unit, res in results.items()}


def _sweep(sim: WaflSim, offered: np.ndarray, make_mix, *, quick: bool, seed: int) -> list:
    """A figure unit's latency/throughput curve: ``offered`` (ops/s per
    client; every other point with ``quick``) served by the paper's 8
    clients through the traffic engine, 8 CPs per point (3 with
    ``quick``) at the figures' 8192-op CP batch.  It copies ``sim`` per
    load point, so a measurement after it runs on the untouched sim."""
    return load_curve(sim, offered[::2] if quick else offered, make_mix,
                      target_ops_per_cp=8192, n_cps=3 if quick else 8, seed=seed)


def _highest_sustained(curve: list) -> int:
    """Index of the highest offered load the curve sustains (the first
    point if it sustains none)."""
    held = [i for i, (offered, achieved, _) in enumerate(curve) if achieved >= SUSTAINED * offered]
    return held[-1] if held else 0


def _peak(curve: list) -> list:
    """The point of highest achieved throughput, the lowest latency
    among equals: the "peak load" of Figures 6, 8 and 9."""
    return max(curve, key=lambda p: (p[1], -p[2]))


def _load_table(results: dict[str, dict], title: str) -> str:
    """The latency-vs-achieved-throughput series of Figures 6, 8 and 9."""
    return fmt_table(
        ["config", "offered/client (ops/s)", "achieved/client (ops/s)", "latency (ms)"],
        [[unit, *point] for unit, res in results.items() for point in res["metrics"]["curve"]],
        title=title,
    )


def _quantities_table(results: dict[str, dict], columns: dict[str, str], title: str) -> str:
    """One row per unit: the metrics ``columns`` maps each header to."""
    return fmt_table(
        ["config", *columns],
        [[unit, *(res["metrics"][k] for k in columns.values())]
         for unit, res in results.items()],
        title=title,
    )


def _overwrite_payload(sim: WaflSim, r: ConfigResult, curve: list) -> dict:
    """Persisted form of a random-overwrite measurement (Figs 6 and 8)."""
    cpu_phase_us = sim.engine.metrics.query("cpu_phase_us", model=sim.engine.cpu_model)
    return {"metrics": dict(r.as_dict(), cpu_phase_us=cpu_phase_us, curve=curve)}


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


def _run_fig6(label: str, *, quick: bool, seed: int) -> dict:
    """Age and measure one Figure 6 configuration."""
    ap, vp = FIG6_CONFIGS[label]
    sim = build_aged_ssd_sim(
        aggregate_policy=ap,
        vol_policy=vp,
        blocks_per_disk=65_536 if quick else 131_072,
        churn_factor=1.0 if quick else 2.0,
        seed=seed,
    )
    curve = _sweep(sim, FIG6_OFFERED, lambda n, rng: UniformOverwriteMix(n, seed=rng),
                   quick=quick, seed=seed)
    # simlint: disable=F804 — fig6 measures the allocator under a canonical
    # workload seed (777) so its metrics differ only in the config axis; threading
    # the unit seed would change the checked-in fig6 baselines
    r = measure_random_overwrite(sim, label, n_cps=15 if quick else 40)
    return _overwrite_payload(sim, r, curve)


def _fig6_tables(results: dict[str, dict]) -> list[str]:
    """The Figure 6 series and the section 4.1 quantities."""
    return [
        _load_table(
            results,
            "Figure 6: latency vs achieved throughput "
            "(8KiB random overwrites, aged all-SSD)",
        ),
        _quantities_table(
            results,
            {
                "agg selected AA free": "agg_selected_free",
                "agg free": "aggregate_free",
                "vol selected AA free": "vol_selected_free",
                "SSD write amp": "write_amplification",
                "CPU us/op": "cpu_us_per_op",
                "device us/op": "device_us_per_op",
                "peak ops/s": "capacity_ops",
            },
            "Section 4.1 in-text quantities",
        ),
    ]


def _fig6_claims(results: dict[str, dict]) -> list[Claim]:
    m = _metrics(results)
    both, vol_only = m["both caches"], m["FlexVol AA cache"]
    agg_only, neither = m["Aggregate AA cache"], m["neither (baseline)"]
    gain = both["capacity_ops"] / neither["capacity_ops"] - 1
    # Latency at the highest load the cached system sustains.
    idx = _highest_sustained(both["curve"])
    load, _, lat_both = both["curve"][idx]
    lat_neither = neither["curve"][idx][2]
    return [
        Claim("cache-selected aggregate AAs are > 0.05 emptier than the aggregate mean",
              "61% vs 45%",
              f"{both['agg_selected_free']:.1%} vs {both['aggregate_free']:.1%}",
              both["agg_selected_free"] > both["aggregate_free"] + 0.05),
        Claim("random selection tracks the aggregate mean within 0.08",
              "46% vs 45%",
              f"{neither['agg_selected_free']:.1%} vs {neither['aggregate_free']:.1%}",
              abs(neither["agg_selected_free"] - neither["aggregate_free"]) < 0.08),
        Claim("the RAID-aware cache cuts SSD write amplification (FlexVol-only -> both)",
              "1.77 -> 1.46",
              f"{vol_only['write_amplification']:.2f} -> {both['write_amplification']:.2f}",
              both["write_amplification"] < vol_only["write_amplification"]),
        Claim("the FlexVol cache cuts WAFL CPU per op (aggregate-only -> both)",
              "309 -> 293 us/op",
              f"{agg_only['cpu_us_per_op']:.1f} -> {both['cpu_us_per_op']:.1f} us/op",
              both["cpu_us_per_op"] < agg_only["cpu_us_per_op"]),
        Claim("the aggregate cache alone raises peak throughput over neither",
              "+24%", f"{agg_only['capacity_ops'] / neither['capacity_ops'] - 1:+.1%}",
              agg_only["capacity_ops"] > neither["capacity_ops"]),
        # The FlexVol cache's benefit is CPU-side (its throughput gain
        # needs a CPU-bound regime — see EXPERIMENTS.md), so its
        # mechanism is claimed directly and it must not hurt capacity.
        Claim("the FlexVol cache alone cuts CPU per op by > 1% vs neither",
              "309 -> 293 us/op",
              f"{neither['cpu_us_per_op']:.1f} -> {vol_only['cpu_us_per_op']:.1f} us/op",
              vol_only["cpu_us_per_op"] < neither["cpu_us_per_op"] * 0.99),
        Claim("the FlexVol cache alone keeps > 97% of neither's peak throughput",
              "+8%", f"{vol_only['capacity_ops'] / neither['capacity_ops']:.1%}",
              vol_only["capacity_ops"] > neither["capacity_ops"] * 0.97),
        Claim("peak-throughput gain, both caches vs neither, > 10%",
              "+24% and +8%", f"{gain:+.1%}", gain > 0.10),
        Claim(f"latency at {load:,.0f} ops/s/client is lower "
              "with both caches than with neither",
              "0.56 ms vs 4.6 ms at 12k ops/s/client",
              f"{lat_both:.2f} ms vs {lat_neither:.2f} ms", lat_both < lat_neither),
    ]


# ----------------------------------------------------------------------
# Figure 7: imbalanced aging (section 4.2)
# ----------------------------------------------------------------------

FIG7_CLIENT_OPS_PER_SEC = 68_000
FIG7_N_GROUPS = 4
FIG7_AGED_GROUPS = (0, 1)


def _build_fig7_sim(seed: int) -> WaflSim:
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
    # Age RG0/RG1 to 50% (static aging, mirroring the paper's old data
    # sitting untouched while OLTP traffic runs).
    rng = np.random.default_rng(seed)
    for gi in FIG7_AGED_GROUPS:
        fill_group_statically(sim.store.groups[gi], 0.5, rng)
    fill_volumes(sim, ops_per_cp=16384, seed=seed + 1)
    reset_measurement_state(sim)
    set_bitmap_checks(sim, False)
    return sim


def _run_fig7(unit: str, *, quick: bool, seed: int) -> dict:
    """The Figure 7 OLTP measurement with per-RAID-group capture."""
    ops_per_cp = 8192
    n_cps = 10 if quick else 30
    sim = _build_fig7_sim(seed)
    wl = OLTPWorkload(sim, ops_per_cp=ops_per_cp, read_fraction=0.65, seed=7)
    per_disk = np.zeros((FIG7_N_GROUPS, 4), dtype=np.int64)
    tetrises, blocks, stripes, partials = np.zeros((4, FIG7_N_GROUPS), dtype=np.int64)
    orig = sim.store.cp_boundary

    def capturing(*args):
        rep = orig(*args)
        for gi, grp in enumerate(rep.groups):
            per_disk[gi] += grp.blocks_per_disk
            tetrises[gi] += grp.tetrises
            blocks[gi] += grp.blocks_written
            stripes[gi] += grp.stripes
            partials[gi] += grp.partial_stripes
        return rep

    sim.store.cp_boundary = capturing
    it = iter(wl)
    for _ in range(n_cps):
        sim.engine.run_cp(next(it))
    popcount_audit(sim)
    seconds = n_cps * ops_per_cp / FIG7_CLIENT_OPS_PER_SEC
    return {
        "metrics": {
            "blocks_per_disk_per_s": (per_disk / seconds).tolist(),
            "tetrises_per_s": (tetrises / seconds).tolist(),
            "blocks_per_s": (blocks / seconds).tolist(),
            "stripes_per_s": (stripes / seconds).tolist(),
            "partial_stripe_fraction": [
                float(p) / float(s) if s else 0.0
                for p, s in zip(partials.tolist(), stripes.tolist())
            ],
            "aged_groups": list(FIG7_AGED_GROUPS),
            "fresh_groups": [
                g for g in range(FIG7_N_GROUPS) if g not in FIG7_AGED_GROUPS
            ],
        }
    }


def _fig7_tables(results: dict[str, dict]) -> list[str]:
    m = results["oltp"]["metrics"]
    state = ["aged 50%" if gi in m["aged_groups"] else "fresh"
             for gi in range(FIG7_N_GROUPS)]
    t1 = fmt_table(
        ["RAID group", "disk", "blocks/s"],
        [
            [f"RG{gi} ({state[gi]})", f"disk{di}", rate]
            for gi, per_disk in enumerate(m["blocks_per_disk_per_s"])
            for di, rate in enumerate(per_disk)
        ],
        title="Figure 7 (top): blocks/s per disk under OLTP at "
        f"{FIG7_CLIENT_OPS_PER_SEC} ops/s",
    )
    per_group = zip(m["tetrises_per_s"], m["blocks_per_s"], m["partial_stripe_fraction"])
    t2 = fmt_table(
        ["RAID group", "state", "tetrises/s", "blocks/s", "blocks/tetris",
         "partial stripe frac"],
        [
            [f"RG{gi}", state[gi], tetrises, blocks,
             blocks / tetrises if tetrises else 0.0, partial]
            for gi, (tetrises, blocks, partial) in enumerate(per_group)
        ],
        title="Figure 7 (bottom): tetrises/s per RAID group",
    )
    return [t1, t2]


def _fig7_claims(results: dict[str, dict]) -> list[Claim]:
    m = results["oltp"]["metrics"]
    aged, fresh = m["aged_groups"], m["fresh_groups"]
    blocks, tetrises, stripes = (
        np.array(m[k]) for k in ("blocks_per_s", "tetrises_per_s", "stripes_per_s")
    )
    partials = np.array(m["partial_stripe_fraction"]) * stripes
    spread = max(max(per) / max(min(per), 1) for per in m["blocks_per_disk_per_s"])
    share = blocks[fresh].mean() / blocks[aged].mean()
    aged_eff = blocks[aged].sum() / tetrises[aged].sum()
    fresh_eff = blocks[fresh].sum() / tetrises[fresh].sum()
    aged_partial = partials[aged].sum() / stripes[aged].sum()
    fresh_partial = partials[fresh].sum() / max(stripes[fresh].sum(), 1)
    return [
        Claim("blocks are even across the disks of a RAID group (max/min rate < 1.1)",
              "even within a group", f"worst spread {spread:.3f}x", spread < 1.1),
        Claim("fresh groups receive > 1.2x the blocks of aged groups",
              "more blocks to RG2/RG3", f"{share:.2f}x", share > 1.2),
        Claim("aged groups write fewer blocks per tetris than fresh groups",
              "marginally more tetrises per block on aged groups",
              f"{aged_eff:.1f} vs {fresh_eff:.1f} blocks/tetris", aged_eff < fresh_eff),
        Claim("aged groups write a larger fraction of partial stripes",
              "free space scattered across partial stripes",
              f"{aged_partial:.3f} vs {fresh_partial:.3f}", aged_partial > fresh_partial),
    ]


# ----------------------------------------------------------------------
# Figure 8: SSD AA sizing (section 4.3)
# ----------------------------------------------------------------------

#: FTL erase unit: a 64 MiB superblock.
FIG8_ERASE_UNIT = 16_384

FIG8_SIZINGS: dict[str, int] = {
    "HDD-sized AA (4k stripes)": 4096,
    "Large AA (2 erase units)": 2 * FIG8_ERASE_UNIT,
}

FIG8_OFFERED = np.linspace(1000, 14000, 14)


def _run_fig8(label: str, *, quick: bool, seed: int) -> dict:
    """Age and measure one Figure 8 AA sizing."""
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
    curve = _sweep(
        sim, FIG8_OFFERED,
        lambda n, rng: UniformOverwriteMix(n, read_fraction=0.55, seed=rng),
        quick=quick, seed=seed,
    )
    r = measure_random_overwrite(
        sim, label, n_cps=12 if quick else 30, ops_per_cp=8192,
        read_fraction=0.55, blocks_per_op=2, seed=5,
    )
    return _overwrite_payload(sim, r, curve)


def _fig8_tables(results: dict[str, dict]) -> list[str]:
    return [
        _load_table(
            results,
            "Figure 8: latency vs achieved throughput, SSD AA sizing (aged to 85%)",
        ),
        _quantities_table(
            results,
            {"write amp": "write_amplification", "CPU us/op": "cpu_us_per_op",
             "device us/op": "device_us_per_op", "peak ops/s": "capacity_ops"},
            "Section 4.3 SSD quantities",
        ),
    ]


def _fig8_claims(results: dict[str, dict]) -> list[Claim]:
    m = _metrics(results)
    small, large = m["HDD-sized AA (4k stripes)"], m["Large AA (2 erase units)"]
    gain = large["capacity_ops"] / small["capacity_ops"] - 1
    wa_ratio = small["write_amplification"] / large["write_amplification"]
    _, small_tput, small_ms = _peak(small["curve"])
    _, large_tput, large_ms = _peak(large["curve"])
    return [
        Claim("peak-throughput gain, erase-unit-sized AA vs HDD-sized AA, > 10%",
              "+26%", f"{gain:+.1%}", gain > 0.10),
        # Paper: halved; our open-unit FTL's reduction varies with
        # utilization but is always substantial and in the same direction.
        Claim("WA ratio small/large > 1.25", "~2x", f"{wa_ratio:.2f}x", wa_ratio > 1.25),
        Claim("at peak the large AA has lower latency or higher achieved throughput",
              "-21% latency",
              f"{large_ms:.2f} ms at {large_tput:,.0f} vs "
              f"{small_ms:.2f} ms at {small_tput:,.0f} ops/s/client",
              large_ms < small_ms or large_tput > small_tput),
    ]


# ----------------------------------------------------------------------
# Figure 9: SMR AA sizing with AZCS (section 4.3)
# ----------------------------------------------------------------------

#: 63 AZCS payloads x 4096: admits both the misaligned 4k-stripe AA and
#: AZCS-aligned divisors.
FIG9_BLOCKS_PER_DISK = 63 * 4096
FIG9_SMR_CFG = SMRConfig(zone_blocks=16384, rewrite_penalty_us=5000.0)
FIG9_OFFERED = np.linspace(2000, 30000, 15)

#: Labels only (the aligned size needs a geometry computation).
FIG9_SIZINGS = ("HDD-sized AA (4k stripes)", "SMR AA (zone + AZCS aligned)")


def _fig9_stripes_per_aa(label: str) -> int:
    if label == "HDD-sized AA (4k stripes)":
        return 4096
    g = RAIDGeometry(3, 1, FIG9_BLOCKS_PER_DISK)
    return aa_size_for_smr(g, FIG9_SMR_CFG.zone_blocks, azcs=True).size


def _run_fig9(label: str, *, quick: bool, seed: int) -> dict:
    """Run one Figure 9 AA sizing."""
    tier = TierSpec(
        label="smr",
        media="smr",
        ndata=3,
        blocks_per_disk=FIG9_BLOCKS_PER_DISK,
        stripes_per_aa=_fig9_stripes_per_aa(label),
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
    curve = _sweep(sim, FIG9_OFFERED, lambda n, rng: SequentialMix(n, wrap=False),
                   quick=quick, seed=seed)
    wl = SequentialWriteWorkload(sim, ops_per_cp=8192, blocks_per_op=1, wrap=False)
    sim.run(wl, 10 if quick else 25)
    popcount_audit(sim)
    m = sim.metrics
    rewrites = sum(d.rewrites for g in sim.store.groups for d in g.devices)
    return {
        "metrics": {
            "label": label,
            "cpu": m.cpu_us_per_op,
            "dev": m.device_us_per_op,
            "rewrites": rewrites,
            "drive_mbps": m.total_physical_blocks * 4096 / 1e6
            / (m.total_device_busy_us / 1e6),
            "blocks": m.total_physical_blocks,
            "curve": curve,
        }
    }


def _fig9_tables(results: dict[str, dict]) -> list[str]:
    return [
        _load_table(
            results,
            "Figure 9: latency vs achieved throughput (sequential writes, unaged SMR)",
        ),
        _quantities_table(
            results,
            {"device us/op": "dev", "checksum-block rewrites": "rewrites",
             "drive MB/s": "drive_mbps"},
            "Section 4.3 SMR quantities",
        ),
    ]


def _fig9_claims(results: dict[str, dict]) -> list[Claim]:
    m = _metrics(results)
    small, aligned = (m[label] for label in FIG9_SIZINGS)
    curve_small, curve_aligned = (small["curve"], aligned["curve"])
    tput_gain = aligned["drive_mbps"] / small["drive_mbps"] - 1
    # Latency compared at the highest offered load the HDD-sized AA sustains.
    idx = _highest_sustained(curve_small)
    lat_delta = curve_aligned[idx][2] / curve_small[idx][2] - 1
    pk_small, pk_aligned = _peak(curve_small)[1], _peak(curve_aligned)[1]
    return [
        # The misaligned AA forces random checksum-block rewrites behind
        # the shingle pointer when switching AAs; the aligned AA
        # eliminates that class (the remaining rewrites are CP-boundary
        # checksum updates common to both configs).
        Claim("the aligned AA causes fewer checksum-block rewrites",
              "avoids random checksum block writes",
              f"{aligned['rewrites']} vs {small['rewrites']}",
              small["rewrites"] > aligned["rewrites"]),
        Claim("aligned-AA drive-throughput gain > 2%",
              "+7%", f"{tput_gain:+.1%}", tput_gain > 0.02),
        Claim(f"latency at {curve_small[idx][0]:,.0f} ops/s/client is "
              "no higher with the aligned AA",
              "-11%", f"{lat_delta:+.1%}", lat_delta <= 0),
        Claim("peak achieved throughput is no lower with the aligned AA",
              "+7%", f"{pk_aligned:,.0f} vs {pk_small:,.0f} ops/s/client",
              pk_aligned >= pk_small),
    ]


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
    are untouched (the warmup sim is discarded), and so is the unit's
    trace, as the warmup runs with the tracer suspended.
    """
    global _fig10_warmed
    if _fig10_warmed:
        return
    _fig10_warmed = True
    tracer = obs.install_tracer(None)
    try:
        # Fresh sim per mount path, exactly like the sweep rows (a second
        # mount on one sim would re-walk an already-consumed allocator).
        for use_topaa in (True, False):
            _fig10_first_cp_cost(_build_fig10_sim(2, 32768 * 4), use_topaa)
    finally:
        obs.install_tracer(tracer)


def _run_fig10(unit: str, *, quick: bool, seed: int) -> dict:
    """One Figure 10 sweep: first-CP cost vs FlexVol size (``"size"``,
    8 volumes) or vs FlexVol count (``"count"``).  Seedless: the builds
    are deterministic.  Rows alternate TopAA / bitmap walk per point,
    smallest point first."""
    points = (4, 16) if quick else (4, 8, 16, 32)
    _fig10_warmup()
    rows: list[list] = []
    build_wall_ms: list[float] = []
    for x in points:
        for use_topaa in (True, False):
            if unit == "size":
                sim, point = _build_fig10_sim(8, 32768 * x), f"{32768 * x} blk/vol"
            else:
                sim, point = _build_fig10_sim(x, FIG10_VOL_VIRTUAL_BLOCKS), x
            cost = _fig10_first_cp_cost(sim, use_topaa)
            rows.append([point, "TopAA" if use_topaa else "no TopAA",
                         cost["blocks_read"], cost["modeled_ms"]])
            # The cache-build *wall* time is nondeterministic, so it
            # rides in the timing section (stripped for comparisons).
            build_wall_ms.append(cost["build_wall_ms"])
    return {"metrics": {"rows": rows}, "timing": {"build_wall_ms": build_wall_ms}}


def _fig10_tables(results: dict[str, dict]) -> list[str]:
    captions = {
        "size": ("volume size", "Figure 10(A): first CP time vs FlexVol size (8 volumes)"),
        "count": ("volumes", "Figure 10(B): first CP time vs number of FlexVols"),
    }
    return [
        fmt_table(
            [captions[unit][0], "mount path", "blocks read", "first-CP modeled (ms)",
             "cache-build wall (ms)"],
            [row + [wall] for row, wall in
             zip(res["metrics"]["rows"], res["timing"]["build_wall_ms"])],
            title=captions[unit][1],
        )
        for unit, res in results.items()
    ]


def _fig10_claims(results: dict[str, dict]) -> list[Claim]:
    def series(unit: str, path: str, column: int) -> list[float]:
        """One column of one mount path's rows, smallest point first."""
        return [r[column] for r in results[unit]["metrics"]["rows"] if r[1] == path]

    # With TopAA the mount reads 1 block per RAID group and 2 per volume
    # (constant in volume size); without it the bitmap walk grows
    # linearly with capacity and with the volume count.
    a_reads, a_walk_reads = series("size", "TopAA", 2), series("size", "no TopAA", 2)
    a_ms, a_walk_ms = series("size", "TopAA", 3), series("size", "no TopAA", 3)
    b_reads, b_walk_reads = series("count", "TopAA", 2), series("count", "no TopAA", 2)
    b_ms, b_walk_ms = series("count", "TopAA", 3), series("count", "no TopAA", 3)
    b_ratios = [w / t for t, w in zip(b_reads, b_walk_reads)]
    return [
        Claim("(A) TopAA mount block reads are flat in volume size",
              "flat with TopAA", f"{a_reads[0]} -> {a_reads[-1]} blocks",
              a_reads[0] == a_reads[-1]),
        Claim("(A) TopAA first-CP time at the largest size < 1.3x the smallest",
              "flat with TopAA", f"{a_ms[-1] / a_ms[0]:.2f}x", a_ms[-1] < 1.3 * a_ms[0]),
        Claim("(A) bitmap-walk block reads grow > 4x from smallest to largest size",
              "linear without TopAA", f"{a_walk_reads[-1] / a_walk_reads[0]:.1f}x",
              a_walk_reads[-1] > 4 * a_walk_reads[0]),
        Claim("(A) at the largest size the TopAA first CP takes < 0.5x the walk's",
              "first CP much faster with TopAA", f"{a_ms[-1] / a_walk_ms[-1]:.2f}x",
              a_ms[-1] < 0.5 * a_walk_ms[-1]),
        Claim("(B) bitmap-walk block reads grow > 4x from fewest to most volumes",
              "linear without TopAA", f"{b_walk_reads[-1] / b_walk_reads[0]:.1f}x",
              b_walk_reads[-1] > 4 * b_walk_reads[0]),
        Claim("(B) at every volume count the walk reads > 10x TopAA's blocks and its "
              "first CP is slower",
              "near-flat with TopAA", f"least read ratio {min(b_ratios):.1f}x",
              min(b_ratios) > 10 and all(t < w for t, w in zip(b_ms, b_walk_ms))),
        Claim("(B) at the most volumes the TopAA first CP takes < 0.35x the walk's",
              "first CP much faster with TopAA", f"{b_ms[-1] / b_walk_ms[-1]:.2f}x",
              b_ms[-1] < 0.35 * b_walk_ms[-1]),
    ]


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

EXPERIMENTS: dict[str, Experiment] = {
    e.name: e
    for e in (
        Experiment(
            "fig6", "AA cache benefit (section 4.1)", 42, tuple(FIG6_CONFIGS),
            _run_fig6, _fig6_tables, _comparing(FIG6_CONFIGS, _fig6_claims),
        ),
        Experiment(
            "fig7", "imbalanced RAID-group aging (section 4.2)", 24,
            ("oltp",), _run_fig7, _fig7_tables, _fig7_claims,
        ),
        Experiment(
            "fig8", "SSD AA sizing (section 4.3)", 99, tuple(FIG8_SIZINGS),
            _run_fig8, _fig8_tables, _comparing(FIG8_SIZINGS, _fig8_claims),
        ),
        Experiment(
            "fig9", "SMR AA sizing with AZCS (section 4.3)", 3, FIG9_SIZINGS,
            _run_fig9, _fig9_tables, _comparing(FIG9_SIZINGS, _fig9_claims),
        ),
        Experiment(
            "fig10", "TopAA mount time (section 4.4)", 0, ("size", "count"),
            _run_fig10, _fig10_tables, _comparing(("size", "count"), _fig10_claims),
        ),
        *drills.ROWS,
        *ablations.ROWS,
    )
}
