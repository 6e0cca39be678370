"""The ``tier`` bench experiment: a heterogeneous-aggregate demo.

Builds one mixed SSD + HDD + SMR aggregate, lets the chooser place an
OLTP volume on the mirrored-SSD tier and a sequential-churn volume on
the RAID-DP SMR tier, drives fill + random churn through it, then
deliberately misplaces the OLTP volume and lets the background
rebalance pass correct it — asserting block conservation on every
migration.  The payload is fully deterministic for a given seed and is
pinned by ``benchmarks/baselines/bench_quick.json`` in CI.
"""

from __future__ import annotations

import hashlib
import json

from ..analysis.auditor import audit_sim
from ..common.config import AggregateSpec, TierSpec, VolumeDecl
from ..common.errors import TieringError
from ..common.rng import derive_seed
from ..fs import iron
from ..fs.filesystem import WaflSim
from ..workloads import RandomOverwriteWorkload, fill_volumes
from .migration import rebalance_tiers, migrate_volume_tier, volume_tier_blocks

__all__ = ["tier_demo_spec", "build_tiered_sim", "run_tier_bench"]


def tier_demo_spec(quick: bool = False) -> AggregateSpec:
    """The demo aggregate: mirrored SSD + RAID-4 HDD + RAID-DP SMR
    tiers, with one volume per workload personality."""
    bpd = 4096 if quick else 16384
    lb = 4096 if quick else 16384
    return AggregateSpec(
        tiers=(
            TierSpec(
                label="flash", media="ssd", raid="mirror",
                ndata=4, blocks_per_disk=bpd,
            ),
            # Widest tier: undeclared ("mixed") volumes land on the
            # largest tier by capacity, so the demo uses all three.
            TierSpec(
                label="disk", media="hdd", raid="raid4",
                ndata=8, blocks_per_disk=bpd,
            ),
            # SMR disks are AZCS-aligned: sizes are multiples of the
            # 504-stripe AZCS/topology alignment unit.
            TierSpec(
                label="smr", media="smr", raid="raid_dp",
                ndata=8, blocks_per_disk=4032 if quick else 16128,
                stripes_per_aa=504 if quick else 2016,
                zone_blocks=2048, azcs=True,
            ),
        ),
        volumes=(
            VolumeDecl("oltp0", logical_blocks=lb, workload="oltp"),
            VolumeDecl("stream0", logical_blocks=2 * lb, workload="sequential"),
            VolumeDecl("scratch0", logical_blocks=lb, workload="mixed"),
        ),
    )


def build_tiered_sim(*, quick: bool = False, seed: int = 55) -> WaflSim:
    """Build the demo's tiered :class:`WaflSim` (same spec + seed =>
    byte-identical aggregate)."""
    return WaflSim.build(tier_demo_spec(quick), seed=seed)


def _digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def run_tier_bench(
    *, quick: bool = False, seed: int = 55, audit: bool = True
) -> dict:
    """Run the heterogeneous-tier demo and return its bench payload."""
    sim = build_tiered_sim(quick=quick, seed=seed)
    store = sim.store
    policy = store.tier_policy
    placements = {name: policy.tier_of(name) for name in sim.vols}
    if placements["oltp0"] != "flash" or placements["stream0"] != "smr":
        raise TieringError(
            f"chooser placed the demo volumes unexpectedly: {placements}"
        )

    fill_cps = fill_volumes(
        sim, ops_per_cp=8192, seed=derive_seed(seed, "fill")
    )
    churn_cps = 3 if quick else 6
    wl = iter(
        RandomOverwriteWorkload(
            sim, ops_per_cp=2048, seed=derive_seed(seed, "churn")
        )
    )
    for _ in range(churn_cps):
        sim.engine.run_cp(next(wl))

    # Deliberate misplacement: shove the OLTP volume onto the SMR tier,
    # churn a little more, then let the background pass put it back.
    misplace = migrate_volume_tier(sim, "oltp0", "smr")
    for _ in range(2):
        sim.engine.run_cp(next(wl))
    corrections = rebalance_tiers(sim)
    if not any(r.volume == "oltp0" and r.target == "flash" for r in corrections):
        raise TieringError(
            "rebalance pass failed to move oltp0 back to the flash tier: "
            f"{corrections}"
        )

    audit_ok = True
    if audit:
        report = audit_sim(sim)
        if not report.ok:
            raise TieringError(
                f"post-demo audit failed: {report.violations[:3]}"
            )
    scan = iron.scan(sim)
    if not scan.clean:
        raise TieringError(f"post-demo Iron scan unclean: {scan.findings[:3]}")

    blocks_by_tier = dict.fromkeys(store.labels, 0)
    freed_by_tier = dict.fromkeys(store.labels, 0)
    for cp in sim.metrics.cps:
        for label, n in cp.blocks_by_tier.items():
            blocks_by_tier[label] += n
        for label, n in cp.freed_by_tier.items():
            freed_by_tier[label] += n

    metrics = {
        "quick": quick,
        "seed": seed,
        "tiers": list(store.labels),
        "placements": placements,
        "placements_final": {
            name: policy.tier_of(name) for name in sim.vols
        },
        "fill_cps": fill_cps,
        "churn_cps": churn_cps + 2,
        "cps": len(sim.metrics.cps),
        "tier_usage": store.tier_usage(),
        "blocks_by_tier": blocks_by_tier,
        "freed_by_tier": freed_by_tier,
        "volume_residency": {
            name: volume_tier_blocks(sim, name) for name in sim.vols
        },
        "migrations": [
            {
                "volume": r.volume,
                "target": r.target,
                "copied": r.copied,
                "freed": r.freed,
                "used": r.used,
            }
            for r in [misplace, *corrections]
        ],
        "audit_ok": audit_ok,
        "iron_clean": scan.clean,
    }
    metrics["digest"] = _digest(metrics)
    return {"metrics": metrics}
