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

Step 3's equality is *block conservation* and is always checked; with
``audit=True`` the cross-layer invariant auditor and a WAFL Iron scan
additionally vouch for both aggregates afterwards.

:func:`run_rebalance` is the CLI-facing demo: run a small fleet hot,
pick the worst-loaded shard's heaviest tenant, let the filter/weigher
scheduler choose a better home, migrate under live traffic, and report
before/after tails.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..analysis import audit_sim
from ..common.errors import AuditError, MigrationError
from ..fs import iron
from ..fs.cp import CPBatch
from .scheduler import FilterScheduler
from .shard import EPOCH_CPS, ShardRuntime

__all__ = ["MigrationReport", "migrate_volume", "run_rebalance"]


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
    *,
    audit: bool = True,
) -> MigrationReport:
    """Move tenant ``name`` from ``source`` to ``target`` at an epoch
    boundary, verifying block conservation (and optionally auditing
    both aggregates).

    A volume holding snapshots is refused with :class:`MigrationError`
    before anything moves: the copy CP carries only the active map, and
    the release CP cannot free blocks a snapshot still pins."""
    if name not in source.tenants:
        raise KeyError(f"shard {source.spec.shard_id} hosts no volume {name!r}")
    request = source.tenants[name]
    vol = source.sim.vols[name]
    if vol.snapshot_names:
        raise MigrationError(
            f"volume {name!r} holds snapshots {list(vol.snapshot_names)}; "
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
    if audit:
        for rt in (source, target):
            report = audit_sim(rt.sim)
            report.raise_if_failed()
            checks += report.checks_run
            findings += len(iron.scan(rt.sim).findings)
        target.sim.vols[name].verify_consistency()
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


def run_rebalance(
    *,
    n_shards: int = 4,
    tenants_per_shard: int = 3,
    seed: int = 77,
    epoch_cps: int = EPOCH_CPS,
) -> dict:
    """Hot-spot rebalancing demo on in-process shards.

    Builds a small fleet, front-loads every tenant onto the low shards
    (a deliberately bad initial placement), runs an epoch, then moves
    the busiest shard's heaviest tenant to the shard the filter/weigher
    scheduler picks, and runs another epoch.  Returns a deterministic
    report: the migration evidence plus worst-p99 per shard before and
    after."""
    from .cluster import make_shard_specs
    from .volumes import noisy_fleet_requests
    from .stats import derive_seed

    specs = make_shard_specs(n_shards, seed=seed)
    shards = {s.shard_id: ShardRuntime(s) for s in specs}
    requests = noisy_fleet_requests(
        n_shards * tenants_per_shard, seed=derive_seed(seed, "fleet")
    )
    # Bad placement on purpose: pack sequentially, so aggressors and
    # victims pile onto the first shards.
    packed = n_shards // 2 or 1
    for i, request in enumerate(requests):
        shards[i % packed].add_volume(request)
    for rt in shards.values():
        rt.run_epoch(epoch_cps)

    before = {sid: rt.stats() for sid, rt in shards.items()}
    busiest = max(before.values(), key=lambda s: (s.worst_p99_ms, -s.shard_id))
    source = shards[busiest.shard_id]
    mover_name = max(
        source.tenants, key=lambda n: (source.tenants[n].offered_fraction, n)
    )
    candidates = [
        before[sid] for sid in sorted(shards) if sid != source.spec.shard_id
    ]
    scheduler = FilterScheduler()
    decision = scheduler.place(source.tenants[mover_name], candidates)
    report = migrate_volume(source, shards[decision.shard_id], mover_name)

    for rt in shards.values():
        rt.run_epoch(epoch_cps)
    after = {sid: rt.stats() for sid, rt in shards.items()}
    return {
        "migration": report.as_dict(),
        "worst_p99_before": {
            sid: before[sid].worst_p99_ms for sid in sorted(before)
        },
        "worst_p99_after": {
            sid: after[sid].worst_p99_ms for sid in sorted(after)
        },
        "free_blocks_after": {
            sid: shards[sid].stats().free_blocks for sid in sorted(shards)
        },
    }
