"""Shard-level chaos: kill an aggregate mid-run, reschedule its tenants.

The fleet-scale fault drill, riding on :mod:`repro.faults`-style disk
failures: after an epoch of live traffic, one shard hosting an
aggressor "dies" — a disk fails in every RAID group (within the parity
budget, so its data stays reconstructible) and the shard is marked
dead, which removes it from every future scheduling decision.  Its
tenants evacuate through the ordinary machinery: the filter/weigher
scheduler picks new homes among the *surviving* shards and
:func:`~repro.cluster.migration.migrate_volume` moves each volume —
reads off the degraded groups reconstruct through parity, block
conservation is checked per move, and both aggregates are audited and
Iron-scanned.  A final epoch then shows the fleet absorbed the loss:
the QoS-protected victims' p99 stays under their admission-queue bound
(``queue_depth / qos_iops``), even for victims that just moved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import PlacementError
from .cluster import make_shard_specs
from .migration import MigrationReport, migrate_volume
from .scheduler import FilterScheduler
from .shard import EPOCH_CPS, ShardRuntime
from .stats import derive_seed
from .volumes import VolumeRequest, noisy_fleet_requests

__all__ = ["ChaosReport", "run_cluster_chaos"]


@dataclass
class ChaosReport:
    """One aggregate-kill drill, end to end."""

    n_shards: int
    killed_shard: int
    #: volume -> new hosting shard for every evacuated tenant.
    evacuated: dict[str, int]
    migrations: list[MigrationReport]
    #: Per-victim p99 (ms) in the epoch after the kill...
    victim_p99_ms: dict[str, float]
    #: ...and each victim's admission-queue bound (with 20% slack).
    victim_bound_ms: dict[str, float]
    iron_findings: int
    audit_checks: int
    #: Volumes that could not be rehomed (no surviving shard passed
    #: the filters); empty on a healthy drill.
    stranded: list[str] = field(default_factory=list)

    @property
    def victims_bounded(self) -> bool:
        return all(
            self.victim_p99_ms[v] <= self.victim_bound_ms[v]
            for v in self.victim_p99_ms
        )

    def as_dict(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "killed_shard": self.killed_shard,
            "evacuated": dict(sorted(self.evacuated.items())),
            "migrations": [m.as_dict() for m in self.migrations],
            "victim_p99_ms": dict(sorted(self.victim_p99_ms.items())),
            "victim_bound_ms": dict(sorted(self.victim_bound_ms.items())),
            "victims_bounded": self.victims_bounded,
            "iron_findings": self.iron_findings,
            "audit_checks": self.audit_checks,
            "stranded": sorted(self.stranded),
        }


def _pick_kill_shard(
    shards: dict[int, ShardRuntime], requests: list[VolumeRequest]
) -> int:
    """The shard to kill: hosts an aggressor (so the drill moves real
    load), prefers one without a victim (so the bound assertion isolates
    rescheduling effects); deterministic tie-break on shard id."""
    profile = {r.name: r.profile for r in requests}

    def counts(rt: ShardRuntime) -> tuple[int, int]:
        n_agg = sum(1 for n in rt.tenants if profile.get(n) == "aggressor")
        n_vic = sum(1 for n in rt.tenants if profile.get(n) == "victim")
        return n_agg, n_vic

    ranked = sorted(
        (sid for sid, rt in shards.items() if counts(rt)[0] > 0),
        key=lambda sid: (counts(shards[sid])[1], sid),
    )
    if ranked:
        return ranked[0]
    return min(shards)


def run_cluster_chaos(
    *,
    n_shards: int = 6,
    tenants_per_shard: int = 2,
    seed: int = 77,
    epoch_cps: int = EPOCH_CPS,
) -> ChaosReport:
    """Kill one aggregate under live traffic and rebalance the fleet."""
    specs = make_shard_specs(n_shards, seed=seed)
    shards = {s.shard_id: ShardRuntime(s) for s in specs}
    requests = noisy_fleet_requests(
        n_shards * tenants_per_shard, seed=derive_seed(seed, "fleet")
    )
    scheduler = FilterScheduler()

    # Initial placement against fresh-build stats.
    stats = [shards[sid].stats() for sid in sorted(shards)]
    for request in requests:
        decision = scheduler.place(request, stats)
        shards[decision.shard_id].add_volume(request)
    for sid in sorted(shards):
        shards[sid].run_epoch(epoch_cps)

    # Kill: one disk per RAID group (reconstructible), shard leaves the
    # scheduling pool.
    kill_id = _pick_kill_shard(shards, requests)
    dead = shards[kill_id]
    for g in range(len(dead.sim.store.groups)):
        dead.sim.store.fail_disk(g, 0)
    dead.alive = False

    # Evacuate through the scheduler, heaviest tenants first so the
    # hardest placements see the emptiest fleet.
    survivor_stats = [
        shards[sid].stats() for sid in sorted(shards) if sid != kill_id
    ]
    movers = sorted(
        dead.tenants,
        key=lambda n: (-dead.tenants[n].offered_fraction, n),
    )
    migrations: list[MigrationReport] = []
    evacuated: dict[str, int] = {}
    stranded: list[str] = []
    for name in movers:
        try:
            decision = scheduler.place(dead.tenants[name], survivor_stats)
        except PlacementError:
            stranded.append(name)
            continue
        migrations.append(
            migrate_volume(dead, shards[decision.shard_id], name)
        )
        evacuated[name] = decision.shard_id

    # The fleet runs on without the dead shard.
    for sid in sorted(shards):
        if sid != kill_id:
            shards[sid].run_epoch(epoch_cps)

    victim_p99: dict[str, float] = {}
    victim_bound: dict[str, float] = {}
    for request in requests:
        if request.profile != "victim":
            continue
        home = next(
            (sid for sid, rt in shards.items() if request.name in rt.tenants),
            None,
        )
        if home is None or home == kill_id:
            continue
        rt = shards[home]
        last = next((r for r in reversed(rt.results) if r is not None), None)
        if last is None or request.name not in last.tenants:
            continue
        victim_p99[request.name] = last.tenants[request.name].p99_ms
        # Worst-case drain of a full admission queue at the victim's
        # SFQ fair share (everyone on the shard backlogged), +20%.
        share_ops = rt.calibration.capacity_ops / max(1, len(rt.tenants))
        victim_bound[request.name] = 1.2 * (request.queue_depth / share_ops) * 1e3

    return ChaosReport(
        n_shards=n_shards,
        killed_shard=kill_id,
        evacuated=evacuated,
        migrations=migrations,
        victim_p99_ms=victim_p99,
        victim_bound_ms=victim_bound,
        iron_findings=sum(m.iron_findings for m in migrations),
        audit_checks=sum(m.audit_checks for m in migrations),
        stranded=stranded,
    )
