"""The drill rows of the experiment table: multi-tenant traffic, scripted
faults, crash consistency, the fleet, tier migration, the CP-time audit.

Every drill is a subject, a schedule of :mod:`repro.drill` events and a
projection of the one report (:class:`~repro.drill.DrillLog`) onto the
leaves the row pins (DESIGN section 13).  The builders, schedules and
projections are importable, so a test runs the same schedule on a
smaller subject, or a changed schedule on the same one.  The claims are
*invariants*: the robustness story of paper section 3.4 has no size or
seed at which it may fail.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from ..analysis import InvariantAuditor
from ..cluster import (
    Evacuate,
    Fleet,
    FilterScheduler,
    KillShard,
    run_cluster_bench,
    run_rebalance,
)
from ..common.config import AggregateSpec, TierSpec, VolumeDecl
from ..common.errors import TieringError
from ..common.rng import derive_seed
from ..crash import crash_digest
from ..drill import (
    END,
    ArmFault,
    CorruptTopAA,
    CrashAt,
    DeleteSnapshot,
    DrillLog,
    FailDisk,
    FlipBits,
    MigrateTier,
    Mount,
    RebalanceTiers,
    RebuildCaches,
    ReplaceDisk,
    Scrub,
    SetFreeBudget,
    SimFeed,
    Snapshot,
    run_drill,
)
from ..fs import WaflSim
from ..fs.cp import CPEngine
from ..fs.mount import DEFAULT_MOUNT_RETRIES
from ..tiering import build_tiered_sim, volume_tier_blocks
from ..traffic import (
    SCENARIOS,
    TrafficEngine,
    build_scenario,
    build_traffic_sim,
    calibrate_capacity,
    run_traffic,
)
from ..traffic.engine import interval_p99s
from ..workloads import RandomOverwriteWorkload, age_filesystem, fill_volumes
from ..workloads.aging import reset_measurement_state
from .claims import Claim, Experiment, invariant
from .harness import document_tables

__all__ = ["ROWS"]

PHASES = ("healthy", "degraded", "repaired")


def _none(what: str, found: int | list) -> Claim:
    """The invariant that ``found`` (a count or a list) is empty."""
    count = found if isinstance(found, int) else len(found)
    return invariant(f"zero {what}", count, not found)


def _two_volume_sim(blocks_per_disk: int, stripes_per_aa: int, seed: int) -> WaflSim:
    """The small all-SSD aggregate the fault and crash drills share:
    one RAID group of three data disks, ``volA`` and ``volB``."""
    phys = 3 * blocks_per_disk
    return WaflSim.build(
        AggregateSpec(
            tiers=(TierSpec(label="ssd", media="ssd", ndata=3,
                            blocks_per_disk=blocks_per_disk, stripes_per_aa=stripes_per_aa),),
            volumes=(VolumeDecl("volA", logical_blocks=phys // 4),
                     VolumeDecl("volB", logical_blocks=phys // 8)),
        ),
        seed=seed,
    )


# ----------------------------------------------------------------------
# traffic: scenarios, and a disk failing and being rebuilt under one
# ----------------------------------------------------------------------
def traffic_engine(
    scenario: str, n_tenants: int, blocks_per_disk: int, *,
    seed: int, testbed_seeds: tuple[int, int] = (42, 4242),
) -> TrafficEngine:
    """A calibrated scenario ready to step.  ``seed`` drives arrivals
    and op mixes; the testbed (build, calibration) has seeds of its own
    so that faults replay against an identical substrate."""
    build_seed, calibration_seed = testbed_seeds
    sim = build_traffic_sim(n_tenants, blocks_per_disk=blocks_per_disk, seed=build_seed)
    cal = calibrate_capacity(sim, seed=calibration_seed)
    tenants = build_scenario(scenario, sim, cal.capacity_ops, n_tenants=n_tenants, seed=seed)
    return TrafficEngine(sim, tenants)


def disk_failure_schedule(steps: int):
    """Data disk 1 of group 0 dies a third of the way in and is
    replaced (rebuilt from parity) two thirds in."""
    return ((steps // 3, FailDisk(0, 1)), (2 * steps // 3, ReplaceDisk(0, 1)))


def disk_failure_metrics(log: DrillLog, engine: TrafficEngine) -> dict:
    """Per-tenant p99 and completions by phase (healthy / degraded /
    repaired): degraded-mode RAID charges reconstruction reads into the
    CP's device time, so the failure's latency cost is per tenant."""
    edges_us = np.array([
        0.0,
        log.step_of(FailDisk) * engine.cp_interval_us,
        log.step_of(ReplaceDisk) * engine.cp_interval_us,
        engine.clock_us,
    ])
    p99s: dict[str, dict[str, float]] = {phase: {} for phase in PHASES}
    counts: dict[str, dict[str, int]] = {phase: {} for phase in PHASES}
    for tenant, st in zip(engine.tenants, engine.states):
        cuts, p99_us = interval_p99s(st.served, edges_us)
        for k, phase in enumerate(PHASES):
            counts[phase][tenant.name] = cuts[k + 1] - cuts[k]
            p99s[phase][tenant.name] = p99_us[k] / 1e3
    return {
        "cps_completed": log.steps,
        "failed_allocations": log.failed_allocations,
        "disk_failures": len(log.evidence(FailDisk)),
        "disks_replaced": len(log.evidence(ReplaceDisk)),
        "rebuild_us": log.rebuild_us,
        "reconstruction_reads": log.reconstruction_reads,
        "degraded_stripes": log.degraded_stripes,
        "phase_p99_ms": p99s,
        "phase_completed": counts,
    }


def _run_traffic(unit: str, *, quick: bool, seed: int) -> dict:
    """One multi-tenant scenario, or the noisy-neighbor population with
    a data disk failing and being rebuilt under it.  Everything is
    simulated-clock derived, so the whole payload is baseline-gated."""
    n_tenants = 2 if quick else 4
    if unit == "disk-failure":
        engine = traffic_engine("noisy-neighbor", n_tenants, 65_536, seed=seed)
        log = run_drill(engine, disk_failure_schedule(30), 30)
        return {"metrics": disk_failure_metrics(log, engine)}
    run = run_traffic(unit, n_tenants=n_tenants, seed=seed, quick=quick)
    out = run.result.as_dict()
    out["calibrated_capacity_ops"] = run.calibration.capacity_ops
    return {"metrics": out}


def _traffic_claims(results: dict[str, dict]) -> list[Claim]:
    if "disk-failure" not in results:
        return []
    return [_none(
        "failed allocations while a data disk fails and is rebuilt under load",
        results["disk-failure"]["metrics"]["failed_allocations"],
    )]


# ----------------------------------------------------------------------
# faults: the scripted recovery scenario, and the same under read faults
# ----------------------------------------------------------------------
def scripted_subject(seed: int, *, ops_per_cp: int, warmup_cps: int) -> SimFeed:
    """A filled, briefly aged two-volume aggregate under random
    overwrites (the churn's seed is ``seed + 1``: its own stream)."""
    sim = _two_volume_sim(32768, 2048, seed)
    fill_volumes(sim, ops_per_cp=8192)
    sim.run(RandomOverwriteWorkload(sim, ops_per_cp=ops_per_cp, seed=seed), warmup_cps)
    return SimFeed(sim, RandomOverwriteWorkload(sim, ops_per_cp=ops_per_cp, seed=seed + 1))


def scripted_schedule(steps: int):
    """The acceptance scenario: one corrupted TopAA page at mount, a
    disk failure mid-workload, and silent bitmap bit-flips on a volume
    (lost frees) and a RAID group (torn write) — all recovered."""
    flips = steps // 2 - 1
    return (
        (0, CorruptTopAA("vol:volB", 16)),
        (0, Mount()),
        (steps // 3 - 1, FailDisk(0, 1)),
        (flips, FlipBits("vol:volA", 48, "set")),
        (flips, FlipBits("group:0", 48, "clear")),
        (flips, Scrub()),
        (2 * steps // 3 - 1, ReplaceDisk(0, 1)),
    )


def transient_schedule(steps: int):
    """The scripted scenario with transient read faults armed where a
    recovery walk will meet them: on ``volB``, whose corrupt TopAA page
    sends the mount to its bitmap, and on ``volA`` as the last degraded
    step begins, for the post-scrub cache rebuild."""
    return (
        (0, ArmFault("vol:volB", "transient-read", 2)),
        *scripted_schedule(steps),
        (steps // 2 + 1, ArmFault("vol:volA", "transient-read", 2)),
    )


def recovery_metrics(log: DrillLog, sim: WaflSim) -> dict:
    """What a fault drill pins: mount fallbacks, scrub findings, the
    degraded window's cost, degraded-RAID accounting, the final scrub."""
    mounts, scrubs = log.evidence(Mount), log.evidence(Scrub)
    rebuilds = log.evidence(RebuildCaches)

    def by_kind(which: str) -> dict[str, int]:
        out: dict[str, int] = {}
        for finding in (f for scrub in scrubs for f in scrub[which]):
            out[finding.kind] = out.get(finding.kind, 0) + finding.count
        return out

    return {
        "cps_completed": log.steps,
        "failed_allocations": log.failed_allocations,
        "degraded_cps": log.degraded_steps,
        "degraded_selects": sum(r["selects"] for r in rebuilds),
        "walk_bits_scanned": sum(r["bits_scanned"] for r in rebuilds),
        "reconstruction_reads": log.reconstruction_reads,
        "degraded_stripes": log.degraded_stripes,
        "blocks_reconstructed": sum(g.blocks_reconstructed for g in sim.store.groups),
        "disk_failures": len(log.evidence(FailDisk)),
        "disks_replaced": len(log.evidence(ReplaceDisk)),
        "rebuild_us": log.rebuild_us,
        "mount_fallbacks": {k: v for m in mounts for k, v in m.fallbacks.items()},
        "mount_repairs": [w for m in mounts for w in m.repairs],
        "transient_retries": sum(m.transient_retries for m in mounts)
        + sum(r["retries"] for r in rebuilds),
        "findings_detected": by_kind("detected"),
        "findings_repaired": by_kind("repaired"),
        "escalations": [w for s in scrubs for w in s["escalated"]],
        "rebuild_blocks_read": sum(r["blocks_read"] for r in rebuilds),
        "final_clean": not log.iron_findings,
    }


def _run_faults(unit: str, *, quick: bool, seed: int) -> dict:
    steps = 8 if quick else 16
    subject = scripted_subject(
        seed, ops_per_cp=1024 if quick else 2048, warmup_cps=3 if quick else 6
    )
    schedule = scripted_schedule(steps) if unit == "scripted" else transient_schedule(steps)
    log = run_drill(subject, schedule, steps, seed=seed)
    metrics = dict(recovery_metrics(log, subject.sim), n_cps=steps)
    if unit == "transient":
        metrics["worst_phase_retries"] = max(
            [m.transient_retries for m in log.evidence(Mount)]
            + [r["retries"] for r in log.evidence(RebuildCaches)]
        )
        metrics["retry_budget"] = DEFAULT_MOUNT_RETRIES
    return {"metrics": metrics}


def _faults_claims(results: dict[str, dict]) -> list[Claim]:
    claims = []
    for unit, res in results.items():
        m = res["metrics"]
        # The scripted unit's claim texts predate the second unit.
        tag = "" if unit == "scripted" else f"{unit}: "
        claims += [
            invariant(f"{tag}zero failed allocations", m["failed_allocations"],
                      not m["failed_allocations"]),
            invariant(f"{tag}every CP completed", f"{m['cps_completed']}/{m['n_cps']}",
                      m["cps_completed"] == m["n_cps"]),
            invariant(f"{tag}final scrub clean", m["final_clean"], m["final_clean"]),
        ]
        if unit == "transient":
            claims.append(invariant(
                "transient: read faults were retried, each recovery phase within its budget",
                f"{m['transient_retries']} retries, worst phase "
                f"{m['worst_phase_retries']}/{m['retry_budget']}",
                0 < m["worst_phase_retries"] <= m["retry_budget"],
            ))
    return claims


# ----------------------------------------------------------------------
# crash: every span edge of consecutive steps, or seeded edges under load
# ----------------------------------------------------------------------
def crash_subject(unit: str, seed: int):
    """``aging`` / ``snapshot``: random-overwrite churn on a small aged
    aggregate, so the delayed-free logs and AA caches carry history.
    ``noisy-neighbor`` / ``under-load``: an aggressor saturating the
    backend beside a QoS-capped victim, so the swept edges include the
    admission pipeline under contention."""
    if unit in ("aging", "snapshot"):
        sim = _two_volume_sim(8192, 256, seed)
        age_filesystem(sim, churn_factor=1.0, ops_per_cp=2048, seed=seed)
        reset_measurement_state(sim)
        return SimFeed(sim, RandomOverwriteWorkload(sim, ops_per_cp=512, seed=seed + 1))
    base = seed + (50 if unit == "under-load" else 40)
    return traffic_engine(
        "noisy-neighbor", 3, 16384, seed=base + 2, testbed_seeds=(base, base + 1)
    )


def crash_schedule(unit: str, steps: int):
    """Sweep every edge of every step — or, ``under-load``, crash every
    second step at one seeded edge and replay it.  ``snapshot`` is the
    aging sweep over a volume whose blocks a snapshot pins."""
    if unit == "under-load":
        return tuple((step, CrashAt("seeded")) for step in range(1, steps, 2))
    sweep = tuple((step, CrashAt()) for step in range(steps))
    return ((0, Snapshot("volA", "s1")), *sweep) if unit == "snapshot" else sweep


def crash_metrics(unit: str, seed: int, log: DrillLog) -> dict:
    crashes = [c for found in log.evidence(CrashAt) for c in found]
    if unit == "under-load":
        header, extra = f"noisy-neighbor:{seed}:{log.steps}", {"steps": log.steps}
    else:
        header = f"{unit}:{seed}"
        extra = {"cps_swept": len(log.committed_digests),
                 "worst_recovery_ms": max((c.recovery_us for c in crashes), default=0) / 1e3}
    return {
        "digest": crash_digest(header, crashes, log.committed_digests),
        "crash_points": len(crashes),
        "torn_write_cases": sum(1 for c in crashes if c.torn_pages),
        "post_commit": sum(1 for c in crashes if c.post_commit),
        **extra,
        "violations": [
            f"{c.row()}: {'; '.join(c.violations) or 'replay diverged'}"
            for c in crashes if not c.ok
        ],
        # Every crash explored, in order.
        "rows": [c.row() for c in crashes],
    }


def _run_crash(unit: str, *, quick: bool, seed: int) -> dict:
    steps = (1 if quick else 3) * (2 if unit == "under-load" else 1)
    log = run_drill(crash_subject(unit, seed), crash_schedule(unit, steps), steps, seed=seed)
    return {"metrics": crash_metrics(unit, seed, log)}


def _crash_claims(results: dict[str, dict]) -> list[Claim]:
    return [
        claim
        for unit, res in results.items()
        for claim in (
            _none(f"{unit} crash violations", res["metrics"]["violations"]),
            invariant(f"{unit}: at least one crash explored",
                      res["metrics"]["crash_points"], res["metrics"]["crash_points"] >= 1),
        )
    ]


# ----------------------------------------------------------------------
# cluster: the fleet, a hot tenant rebalanced, an aggregate killed
# ----------------------------------------------------------------------
def chaos_fleet(seed: int) -> Fleet:
    """Six shards, two tenants each, placed by the filter/weigher
    scheduler against fresh-build stats."""
    fleet = Fleet(6, 2, seed)
    stats = [fleet.shards[sid].stats() for sid in sorted(fleet.shards)]
    scheduler = FilterScheduler()
    for request in fleet.requests:
        fleet.shards[scheduler.place(request, stats).shard_id].add_volume(request)
    return fleet


#: After an epoch of live traffic an aggregate dies and its tenants
#: rehome through the scheduler; a final epoch shows the fleet absorbed it.
CHAOS_SCHEDULE = ((1, KillShard()), (1, Evacuate()))


def chaos_metrics(fleet: Fleet, log: DrillLog) -> dict:
    """The evacuation's evidence, and every surviving victim's p99 in
    the epoch after the kill against its admission-queue bound."""
    (killed,), (moved,) = log.evidence(KillShard), log.evidence(Evacuate)
    victim_p99: dict[str, float] = {}
    victim_bound: dict[str, float] = {}
    for request in fleet.requests:
        home = next((rt for rt in fleet.shards.values() if request.name in rt.tenants), None)
        if request.profile != "victim" or home is None or not home.alive:
            continue
        last = next((r for r in reversed(home.results) if r is not None), None)
        if last is None or request.name not in last.tenants:
            continue
        victim_p99[request.name] = last.tenants[request.name].p99_ms
        # Worst-case drain of a full admission queue at the victim's
        # SFQ fair share (everyone on the shard backlogged), +20%.
        share_ops = home.calibration.capacity_ops / max(1, len(home.tenants))
        victim_bound[request.name] = 1.2 * (request.queue_depth / share_ops) * 1e3
    return {
        "n_shards": len(fleet.shards),
        "killed_shard": killed,
        "evacuated": dict(sorted(moved.evacuated.items())),
        "migrations": [m.as_dict() for m in moved.migrations],
        "victim_p99_ms": dict(sorted(victim_p99.items())),
        "victim_bound_ms": dict(sorted(victim_bound.items())),
        "victims_bounded": all(victim_p99[v] <= victim_bound[v] for v in victim_p99),
        "iron_findings": sum(m.iron_findings for m in moved.migrations),
        "audit_checks": sum(m.audit_checks for m in moved.migrations),
        "stranded": sorted(moved.stranded),
    }


def _run_cluster(unit: str, *, quick: bool, seed: int) -> dict:
    """``fleet``: one noisy-neighbor fleet placed by the filter/weigher
    scheduler and by seeded random placement.  ``rebalance``: a hot
    tenant migrated under live traffic.  ``chaos``: an aggregate killed
    and evacuated.  (The last two are small enough to have one size.)"""
    if unit == "fleet":
        # The shards run in pool workers this process's arming does not
        # reach, so they are told whether it is armed.
        armed = CPEngine.default_auditor_factory is not None
        return run_cluster_bench(quick=quick, seed=seed, audit=armed)
    if unit == "rebalance":
        return {"metrics": run_rebalance(seed=seed)}
    fleet = chaos_fleet(seed)
    return {"metrics": chaos_metrics(fleet, run_drill(fleet, CHAOS_SCHEDULE, 2))}


def _cluster_claims(results: dict[str, dict]) -> list[Claim]:
    claims = []
    if "fleet" in results:
        m = results["fleet"]["metrics"]
        ours, random = m["victim_p99_ms"], m["victim_p99_ms_random"]
        claims.append(invariant(
            "fleet: scheduled placement's victim mean p99 <= random placement's",
            f"{ours:.3f} ms vs {random:.3f} ms", ours <= random,
        ))
    if "rebalance" in results:
        mig = results["rebalance"]["metrics"]["migration"]
        claims += [
            invariant("rebalance: blocks copied == blocks freed",
                      f"{mig['blocks_copied']} == {mig['blocks_freed']}",
                      mig["blocks_copied"] == mig["blocks_freed"]),
            _none("rebalance Iron findings", mig["iron_findings"]),
        ]
    if "chaos" in results:
        m = results["chaos"]["metrics"]
        claims += [
            invariant("chaos: every surviving victim's p99 within its drain bound",
                      m["victims_bounded"], m["victims_bounded"]),
            _none("chaos stranded tenants", m["stranded"]),
            _none("chaos Iron findings", m["iron_findings"]),
        ]
    return claims


# ----------------------------------------------------------------------
# tier: a misplaced volume corrected by the background pass
# ----------------------------------------------------------------------
def _run_tier(unit: str, *, quick: bool, seed: int) -> dict:
    """The chooser places an OLTP volume on the mirrored-SSD tier and a
    sequential one on SMR; fill, churn, then deliberately shove the
    OLTP volume onto SMR, churn two CPs more, and let the background
    pass put it back.  Deterministic per (size, seed): the payload
    carries its own digest."""
    sim = build_tiered_sim(quick=quick, seed=seed)
    store = sim.store
    placements = {name: store.tier_of(name) for name in sim.vols}
    if placements["oltp0"] != "flash" or placements["stream0"] != "smr":
        raise TieringError(f"chooser placed the demo volumes unexpectedly: {placements}")
    fill_cps = fill_volumes(sim, ops_per_cp=8192, seed=derive_seed(seed, "fill"))
    churn = RandomOverwriteWorkload(sim, ops_per_cp=2048, seed=derive_seed(seed, "churn"))
    misplace = 3 if quick else 6
    schedule = ((misplace, MigrateTier("oltp0", "smr")), (END, RebalanceTiers()))
    log = run_drill(SimFeed(sim, churn), schedule, misplace + 2)
    moves = [*log.evidence(MigrateTier), *log.evidence(RebalanceTiers)[0]]
    if not any(r.volume == "oltp0" and r.target == "flash" for r in moves[1:]):
        raise TieringError(f"rebalance pass failed to move oltp0 back to flash: {moves}")

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
        "placements_final": {name: store.tier_of(name) for name in sim.vols},
        "fill_cps": fill_cps,
        "churn_cps": log.steps,
        "cps": len(sim.metrics.cps),
        "tier_usage": store.tier_usage(),
        "blocks_by_tier": blocks_by_tier,
        "freed_by_tier": freed_by_tier,
        "volume_residency": {name: volume_tier_blocks(sim, name) for name in sim.vols},
        "migrations": [
            {"volume": r.volume, "target": r.target,
             "copied": r.copied, "freed": r.freed, "used": r.used}
            for r in moves
        ],
        "audit_ok": not log.audit_violations,
        "iron_clean": not log.iron_findings,
    }
    metrics["digest"] = hashlib.sha256(
        json.dumps(metrics, sort_keys=True).encode()
    ).hexdigest()
    return {"metrics": metrics}


def _tier_claims(results: dict[str, dict]) -> list[Claim]:
    m = results["tiered"]["metrics"]
    moves = [(r["copied"], r["freed"], r["used"]) for r in m["migrations"]]
    return [
        invariant("every tier migration conserves blocks (copied == freed == on target)",
                  moves, all(c == f == u for c, f, u in moves)),
        invariant("audit and Iron clean after the migrations",
                  f"audit {m['audit_ok']}, Iron {m['iron_clean']}",
                  m["audit_ok"] and m["iron_clean"]),
    ]


# ----------------------------------------------------------------------
# audit: the invariant auditor on every CP of a healthy system
# ----------------------------------------------------------------------
def _run_audit(unit: str, *, quick: bool, seed: int) -> dict:
    """Snapshot churn and a delayed-free budget with the invariant
    auditor on every CP (always armed here, and collecting rather than
    raising so a violation is a failed claim, not a traceback).  The
    chaos half of the audit is ``faults/scripted`` under ``--audit``."""
    n = 4 if quick else 8
    sim = WaflSim.build(
        AggregateSpec(
            tiers=(TierSpec(label="ssd", media="ssd", ndata=4, blocks_per_disk=16384),),
            volumes=(VolumeDecl("lun0", logical_blocks=24576),
                     VolumeDecl("lun1", logical_blocks=12288)),
        ),
        seed=seed,
    )
    auditor = sim.engine.auditor = InvariantAuditor(raise_on_violation=False)
    fill_volumes(sim, seed=derive_seed(seed, "fill"))
    churn = RandomOverwriteWorkload(sim, ops_per_cp=1024, seed=derive_seed(seed, "churn"))
    schedule = (
        (n, Snapshot("lun0", "audit-snap")),
        (n, SetFreeBudget(4)),
        (2 * n, DeleteSnapshot("lun0", "audit-snap")),
        (2 * n, SetFreeBudget(None)),
    )
    log = run_drill(SimFeed(sim, churn), schedule, 3 * n)
    return {"metrics": {
        "cps_audited": auditor.cps_audited,
        # (The per-CP check count is not persisted: a traced run makes
        # one more check per CP, and traced must equal untraced.)
        "final_audit_checks": log.audit_checks,
        "violations": [str(v) for r in auditor.reports for v in r.violations]
        + log.audit_violations,
    }}


def _audit_claims(results: dict[str, dict]) -> list[Claim]:
    return [_none("audit violations", results["healthy"]["metrics"]["violations"])]


ROWS = (
    Experiment(
        "traffic", "multi-tenant traffic scenarios (QoS, tail latency, disk failure)", 7,
        (*SCENARIOS, "disk-failure"), _run_traffic, document_tables, _traffic_claims,
    ),
    Experiment(
        "faults", "scripted chaos: inject faults, recover, report (section 3.4)", 1234,
        ("scripted", "transient"), _run_faults, document_tables, _faults_claims,
    ),
    Experiment(
        "crash", "crash at every CP span edge and under load; recover, audit, compare", 0,
        ("aging", "noisy-neighbor", "under-load", "snapshot"),
        _run_crash, document_tables, _crash_claims,
    ),
    Experiment(
        "cluster", "fleet placement vs random, online rebalance, aggregate-kill chaos", 77,
        ("fleet", "rebalance", "chaos"), _run_cluster, document_tables, _cluster_claims,
        serial=True,
    ),
    Experiment(
        "tier", "heterogeneous-tier placement and migration", 55,
        ("tiered",), _run_tier, document_tables, _tier_claims,
    ),
    Experiment(
        "audit", "CP-time invariant audit of a healthy system", 11,
        ("healthy",), _run_audit, document_tables, _audit_claims,
    ),
)
