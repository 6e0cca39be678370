"""The drill rows of the experiment table: multi-tenant traffic, scripted
faults, crash consistency, the fleet, tier migration, the CP-time audit.

Each ``run`` is a thin adapter over the subsystem's own driver: it
picks the quick or full size, passes the unit's seed, and persists the
driver's own report as the unit's metrics — so the digests and counts
here are the ones the drivers' tests pin, and one generic printer
(:func:`~repro.bench.harness.document_tables`) shows them.  Their
claims are *invariants*: the robustness story of paper section 3.4 has
no size or seed at which it may fail.
"""

from __future__ import annotations

from ..analysis import InvariantAuditor, audit_sim
from ..cluster import run_cluster_bench, run_cluster_chaos, run_rebalance
from ..common.config import AggregateSpec, TierSpec, VolumeDecl
from ..common.rng import derive_seed
from ..crash import explore_aging, explore_noisy_neighbor, run_crash_under_load
from ..faults import default_scenario, run_chaos, run_chaos_under_load
from ..fs import WaflSim
from ..fs.cp import CPEngine
from ..tiering import run_tier_bench
from ..traffic import SCENARIOS, run_traffic
from ..workloads import RandomOverwriteWorkload, fill_volumes
from .claims import Claim, Experiment, invariant
from .harness import document_tables

__all__ = ["ROWS"]


def _none(what: str, found: int | list) -> Claim:
    """The invariant that ``found`` (a count or a list) is empty."""
    count = found if isinstance(found, int) else len(found)
    return invariant(f"zero {what}", count, not found)


def _run_traffic(unit: str, *, quick: bool, seed: int) -> dict:
    """One multi-tenant scenario, or the noisy-neighbor population with
    a data disk failing and being rebuilt under it.  Everything is
    simulated-clock derived, so the whole payload is baseline-gated."""
    n_tenants = 2 if quick else 4
    if unit == "disk-failure":
        metrics, _engine = run_chaos_under_load(
            scenario="noisy-neighbor", n_tenants=n_tenants, seed=seed
        )
        return {"metrics": metrics.as_dict()}
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


def _run_faults(unit: str, *, quick: bool, seed: int) -> dict:
    """The acceptance chaos scenario: a disk failure mid-workload, a
    corrupted TopAA page and silent bitmap bit-flips, recovered."""
    scenario = default_scenario(seed, quick=quick)
    metrics, _sim = run_chaos(scenario)
    return {"metrics": dict(metrics.as_dict(), n_cps=scenario.n_cps)}


def _faults_claims(results: dict[str, dict]) -> list[Claim]:
    m = results["scripted"]["metrics"]
    return [
        _none("failed allocations", m["failed_allocations"]),
        invariant("every CP completed", f"{m['cps_completed']}/{m['n_cps']}",
                  m["cps_completed"] == m["n_cps"]),
        invariant("final scrub clean", m["final_clean"], m["final_clean"]),
    ]


def _run_crash(unit: str, *, quick: bool, seed: int) -> dict:
    """Crash at every span edge of consecutive CPs (``aging``,
    ``noisy-neighbor``) or at seeded points under live traffic
    (``under-load``); recover through the real mount path and verify."""
    cps = 1 if quick else 3
    if unit == "under-load":
        report = run_crash_under_load(steps=2 * cps, crash_every=2, seed=seed)
        crashes, extra = report.crashes, {"steps": report.steps}
    else:
        explore = explore_aging if unit == "aging" else explore_noisy_neighbor
        report = explore(cps=cps, seed=seed)
        crashes = report.outcomes
        extra = {"cps_swept": report.cps_swept,
                 "worst_recovery_ms": max((o.recovery_us for o in crashes), default=0) / 1e3}
    return {"metrics": {
        "digest": report.digest(),
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
    }}


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
    return {"metrics": run_cluster_chaos(seed=seed).as_dict()}


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


def _run_tier(unit: str, *, quick: bool, seed: int) -> dict:
    return run_tier_bench(quick=quick, seed=seed)


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
    wl = RandomOverwriteWorkload(sim, ops_per_cp=1024, seed=derive_seed(seed, "churn"))
    sim.run(wl, n)
    sim.create_snapshot("lun0", "audit-snap")
    sim.set_free_budget(4)
    sim.run(wl, n)
    sim.delete_snapshot("lun0", "audit-snap")
    sim.set_free_budget(None)
    sim.run(wl, n)
    final = audit_sim(sim)
    return {"metrics": {
        "cps_audited": auditor.cps_audited,
        # (The per-CP check count is not persisted: a traced run makes
        # one more check per CP, and traced must equal untraced.)
        "final_audit_checks": final.checks_run,
        "violations": [str(v) for r in (*auditor.reports, final) for v in r.violations],
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
        ("scripted",), _run_faults, document_tables, _faults_claims,
    ),
    Experiment(
        "crash", "crash at every CP span edge and under load; recover, audit, compare", 0,
        ("aging", "noisy-neighbor", "under-load"), _run_crash, document_tables, _crash_claims,
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
