"""Online volume migration between live shards.

Migration happens at an epoch boundary — the cluster's quiesce point.
By then every operation the tenant admitted has either ridden a CP
(its writes are durable in the source volume's ``l2v`` map) or sits in
the shard's ``carryover`` counter (admitted, not yet served).  Moving
a volume is therefore exact:

1. **Drain**: take the tenant's carryover off the source shard; those
   operations replay on the target in its next epoch, paying their
   queueing delay there.
2. **Copy**: one CP on the target writes every *mapped* logical block
   of the source volume into a fresh FlexVol — new physical homes via
   the target's own write allocator, like any other CP traffic.
3. **Release**: one CP on the source deletes the same logical blocks;
   the CP boundary applies the delayed frees, so the source's free
   count rises by exactly the mapped block count.

Step 3's equality is *block conservation*; the cross-layer invariant
auditor and the WAFL Iron scan its report carries then vouch for both
aggregates.

The fleet drills ride on it.  :class:`Fleet` is the drill subject — a
dict of live shards stepping one epoch each — and three events move
volumes between them under :func:`repro.drill.run_drill`:
:class:`MigrateShard` (the hottest shard's heaviest tenant goes where
the filter/weigher scheduler puts it), :class:`KillShard` (an aggregate
hosting an aggressor dies: a disk fails in every RAID group, within the
parity budget, and the shard leaves the scheduling pool) and
:class:`Evacuate` (every dead shard's tenants rehome through the
scheduler, reads off the degraded groups reconstructing through
parity).  :func:`run_rebalance` is the two-epoch rebalance drill.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..analysis import audit_sim
from ..common.errors import AuditError, FaultError, MigrationError, PlacementError
from ..drill import run_drill
from ..fs.cp import CPBatch
from .cluster import make_shard_specs
from .scheduler import FilterScheduler
from .shard import ShardRuntime
from .stats import derive_seed
from .volumes import noisy_fleet_requests

__all__ = [
    "MigrationReport",
    "migrate_volume",
    "Fleet",
    "MigrateShard",
    "KillShard",
    "Evacuate",
    "Evacuation",
    "run_rebalance",
]


@dataclass(frozen=True)
class MigrationReport:
    """What one migration did, and the evidence it was safe."""

    volume: str
    source_shard: int
    target_shard: int
    #: Mapped logical blocks written into the target volume.
    blocks_copied: int
    #: Physical blocks the source aggregate got back (must equal
    #: ``blocks_copied`` — block conservation).
    blocks_freed: int
    #: Admitted-but-unserved ops drained from the source...
    ops_drained: int
    #: ...and queued for replay in the target's next epoch.
    ops_replayed: int
    #: Iron findings across both aggregates after the move (0 = clean).
    iron_findings: int
    #: Invariant-auditor checks passed across both sims (0 if skipped).
    audit_checks: int

    def as_dict(self) -> dict:
        return asdict(self)


def migrate_volume(
    source: ShardRuntime,
    target: ShardRuntime,
    name: str,
) -> MigrationReport:
    """Move tenant ``name`` from ``source`` to ``target`` at an epoch
    boundary, verifying block conservation and auditing both
    aggregates.

    Refused with :class:`MigrationError` before anything moves: a
    target that is dead (no epoch would ever run the tenant again; a
    dead *source* is legal — that is evacuation) or is the source
    itself, a volume the source does not host, and a volume holding
    snapshots (the copy CP carries only the active map, and the release
    CP cannot free blocks a snapshot still pins)."""
    if target is source:
        raise MigrationError(f"shard {source.spec.shard_id} is both source and target")
    if not target.alive:
        raise MigrationError(f"target shard {target.spec.shard_id} is dead")
    if name not in source.tenants:
        raise MigrationError(f"shard {source.spec.shard_id} hosts no volume {name!r}")
    request = source.tenants[name]
    vol = source.sim.vols[name]
    if vol.snapshots:
        raise MigrationError(
            f"volume {name!r} holds snapshots {list(vol.snapshots)}; "
            "snapshot-pinned blocks cannot be migrated between shards"
        )
    drain = source.carryover.get(name, 0)
    mapped = np.nonzero(vol.l2v >= 0)[0]

    target.add_volume(request)
    target.sim.engine.run_cp(
        CPBatch(writes={name: mapped}, ops=int(mapped.size))
    )

    free_before = int(source.sim.store.free_count)
    source.sim.engine.run_cp(CPBatch(writes={}, deletes={name: mapped}))
    freed = int(source.sim.store.free_count) - free_before
    source.remove_volume(name)
    if freed != int(mapped.size):
        raise AuditError(
            f"block conservation violated migrating {name!r}: copied "
            f"{int(mapped.size)} blocks but source freed {freed}"
        )
    if drain:
        target.carryover[name] = target.carryover.get(name, 0) + drain

    checks = 0
    findings = 0
    for rt in (source, target):
        report = audit_sim(rt.sim)
        report.raise_if_failed()
        checks += report.checks_run
        findings += len(report.iron.findings)
    return MigrationReport(
        volume=name,
        source_shard=source.spec.shard_id,
        target_shard=target.spec.shard_id,
        blocks_copied=int(mapped.size),
        blocks_freed=freed,
        ops_drained=drain,
        ops_replayed=drain,
        iron_findings=findings,
        audit_checks=checks,
    )


class Fleet:
    """The fleet as a drill subject: ``n_shards`` fresh shards and the
    noisy-neighbor tenant population to place on them (placing it is
    the caller's move); one step is one epoch on every live shard."""

    def __init__(self, n_shards: int, tenants_per_shard: int, seed: int) -> None:
        self.shards = {
            s.shard_id: ShardRuntime(s) for s in make_shard_specs(n_shards, seed=seed)
        }
        self.requests = noisy_fleet_requests(
            n_shards * tenants_per_shard, seed=derive_seed(seed, "fleet")
        )

    def sims(self) -> list:
        return [rt.sim for rt in self.shards.values()]

    def step(self) -> list:
        ran = []
        for sid in sorted(self.shards):
            rt = self.shards[sid]
            if rt.alive and rt.run_epoch() is not None:
                ran += rt.sim.metrics.cps
        return ran


class _FleetEvent:
    def check(self, drill, step, earlier) -> None:
        if not getattr(drill.subject, "shards", None):
            raise FaultError(f"{self} needs a subject with shards (a Fleet)")


@dataclass(frozen=True)
class MigrateShard(_FleetEvent):
    """Hot-spot rebalancing: the shard with the worst tail gives its
    heaviest tenant to the shard the filter/weigher scheduler picks
    (evidence: the :class:`MigrationReport`)."""

    def fire(self, drill) -> MigrationReport:
        shards = drill.subject.shards
        stats = {sid: rt.stats() for sid, rt in shards.items()}
        busiest = max(stats.values(), key=lambda s: (s.worst_p99_ms, -s.shard_id))
        source = shards[busiest.shard_id]
        mover = max(source.tenants, key=lambda n: (source.tenants[n].offered_fraction, n))
        candidates = [stats[sid] for sid in sorted(shards) if sid != busiest.shard_id]
        decision = FilterScheduler().place(source.tenants[mover], candidates)
        return migrate_volume(source, shards[decision.shard_id], mover)


@dataclass(frozen=True)
class KillShard(_FleetEvent):
    """One aggregate dies (evidence: its shard id).  The shard chosen
    hosts an aggressor, so the drill moves real load, and preferably no
    victim, so a bound on victim tails isolates the rescheduling."""

    def fire(self, drill) -> int:
        shards = drill.subject.shards

        def hosted(sid: int, profile: str) -> int:
            return sum(1 for r in shards[sid].tenants.values() if r.profile == profile)

        ranked = sorted(
            (sid for sid in shards if hosted(sid, "aggressor")),
            key=lambda sid: (hosted(sid, "victim"), sid),
        )
        dead = shards[ranked[0] if ranked else min(shards)]
        for g in range(len(dead.sim.store.groups)):
            dead.sim.store.fail_disk(g, 0)
        dead.alive = False
        return dead.spec.shard_id


@dataclass(frozen=True)
class Evacuation:
    """Where a dead shard's tenants went, and the evidence per move."""

    #: volume -> new hosting shard.
    evacuated: dict[str, int]
    migrations: tuple[MigrationReport, ...]
    #: Volumes no surviving shard's filters admitted.
    stranded: tuple[str, ...]


@dataclass(frozen=True)
class Evacuate(_FleetEvent):
    """Every dead shard's tenants rehome through the scheduler, heaviest
    first so the hardest placements see the emptiest fleet."""

    def fire(self, drill) -> Evacuation:
        shards = drill.subject.shards
        scheduler = FilterScheduler()
        survivors = [shards[sid].stats() for sid in sorted(shards) if shards[sid].alive]
        evacuated: dict[str, int] = {}
        migrations: list[MigrationReport] = []
        stranded: list[str] = []
        for dead in (rt for rt in shards.values() if not rt.alive):
            for name in sorted(
                dead.tenants, key=lambda n: (-dead.tenants[n].offered_fraction, n)
            ):
                try:
                    decision = scheduler.place(dead.tenants[name], survivors)
                except PlacementError:
                    stranded.append(name)
                    continue
                migrations.append(migrate_volume(dead, shards[decision.shard_id], name))
                evacuated[name] = decision.shard_id
        return Evacuation(evacuated, tuple(migrations), tuple(stranded))


def run_rebalance(*, n_shards: int = 4, seed: int = 77) -> dict:
    """The rebalance drill: front-load three tenants per shard onto the
    low shards (a deliberately bad placement), run an epoch,
    :class:`MigrateShard`, run another.  Returns the migration evidence
    plus worst p99 per shard before and after."""
    fleet = Fleet(n_shards, 3, seed)
    for i, request in enumerate(fleet.requests):
        fleet.shards[i % (n_shards // 2 or 1)].add_volume(request)
    log = run_drill(fleet, ((1, MigrateShard()),), 2)
    first = {sid: rt.results[0] for sid, rt in fleet.shards.items()}
    after = {sid: rt.stats() for sid, rt in fleet.shards.items()}
    return {
        "migration": log.evidence(MigrateShard)[0].as_dict(),
        "worst_p99_before": {
            sid: max(t.p99_ms for t in r.tenants.values()) if r else 0.0
            for sid, r in sorted(first.items())
        },
        "worst_p99_after": {sid: after[sid].worst_p99_ms for sid in sorted(after)},
        "free_blocks_after": {sid: after[sid].free_blocks for sid in sorted(after)},
    }
