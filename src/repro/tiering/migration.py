"""Intra-aggregate tier migration.

A tier migration relocates every virtual VBN the volume's container
map populates — the active file system's and every snapshot's — onto
the target tier in one CP (:attr:`~repro.fs.cp.CPBatch.relocate`): new
physical homes there, the old homes delayed-freed, the virtual VBNs
(and so the snapshots) kept.  Once that CP commits, the volume's tier
assignment flips to the target.  Because the copy *is* a CP, it is
priced, audited, and crash-consistent like any other CP.

:func:`rebalance_tiers` is the background pass: it compares each
volume's current assignment with what the chooser would pick from the
declared workload plus the measured op mix, and migrates the
disagreements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import TieringError
from ..fs.aggregate import Aggregate
from ..fs.cp import CPBatch
from ..fs.tiers import choose_tier

__all__ = [
    "TierMigrationReport",
    "check_pinning",
    "volume_tier_blocks",
    "migrate_volume_tier",
    "recommend_tiers",
    "rebalance_tiers",
]


@dataclass(frozen=True)
class TierMigrationReport:
    """Block-conservation accounting for one volume migration."""

    volume: str
    target: str
    #: Physical blocks written by the migration CP.
    copied: int
    #: Physical blocks the migration CP freed: applied at its boundary,
    #: or left pending by a free budget.
    freed: int
    #: The volume's mapped physical blocks now resident on the target
    #: tier (post-migration).
    used: int


def check_pinning(store: Aggregate) -> None:
    """Refuse (:class:`TieringError`) an aggregate whose volumes cannot
    change tier: a migration re-pins a volume, so the aggregate needs
    two tiers or more and must place by per-volume pinning, not by a
    tier policy (a Flash Pool's hot/cold split)."""
    if len(store.labels) < 2 or store.tier_policy is not None:
        raise TieringError(
            "tier migration re-pins a volume: it needs two or more tiers (have "
            f"{store.labels}) placed by per-volume pinning, not by a tier policy"
        )


def _pending_frees(store: Aggregate) -> int:
    """Delayed frees queued, not yet applied, across the aggregate."""
    return sum(fs.delayed_frees.pending_count for _, fs, _ in store.physical_instances())


def volume_tier_blocks(sim, vol_name: str) -> dict[str, int]:
    """Physical blocks of ``vol_name`` per tier label: the homes of
    every mapped virtual VBN, snapshot-held ones included."""
    store = sim.store
    vol = sim.vols[vol_name]
    phys = np.sort(vol.physical_of(vol.mapped()))
    cuts = np.searchsorted(phys, [*store.bases, store.nblocks])
    return dict(zip(store.labels, np.diff(cuts).tolist()))


def migrate_volume_tier(sim, vol_name: str, target: str) -> TierMigrationReport:
    """Move every mapped block of ``vol_name``, snapshots' included,
    onto tier ``target``.

    Runs one empty CP first to apply the delayed frees earlier CPs
    queued (as many as a free budget allows), then one CP that relocates
    the volume's mapped virtual VBNs to the target, and re-pins the
    volume there once that CP has committed: a relocation the engine
    refuses (:class:`~repro.common.errors.OutOfSpaceError`) moves
    nothing and leaves the volume where it was.  Verifies block
    conservation — blocks copied == blocks freed == blocks now on the
    target tier == the volume's mapped set — and raises
    :class:`TieringError` on any mismatch.  The migration CP's frees are
    the ones it applied plus the growth of the store's pending delayed
    frees, so the check holds under any free budget.
    """
    store = sim.store
    check_pinning(store)
    if target not in store.labels:
        raise TieringError(
            f"unknown tier {target!r}; aggregate tiers: {store.labels}"
        )
    vol = sim.vols.get(vol_name)
    if vol is None:
        raise TieringError(f"unknown volume {vol_name!r}")

    sim.engine.run_cp(CPBatch())

    mapped = np.flatnonzero(vol.mapped())
    pending = _pending_frees(store)
    stats = sim.engine.run_cp(CPBatch(relocate={vol_name: mapped}, relocate_to=target))
    store.assign(vol_name, target)
    copied = stats.physical_blocks
    freed = sum(stats.freed_by_tier.values()) + _pending_frees(store) - pending
    used = volume_tier_blocks(sim, vol_name)[target]
    if not (copied == freed == used == int(mapped.size)):
        raise TieringError(
            f"tier migration of {vol_name} to {target!r} broke block "
            f"conservation: copied={copied} freed={freed} "
            f"on_target={used} mapped={int(mapped.size)}"
        )
    return TierMigrationReport(vol_name, target, copied, freed, used)


def recommend_tiers(sim) -> dict[str, str]:
    """Chooser verdict per volume: declared workload hint refined by the
    aggregate's measured op mix (for "mixed" volumes)."""
    return {
        name: choose_tier(sim.store.tiers, vol.spec.workload, metrics=sim.metrics)
        for name, vol in sim.vols.items()
    }


def rebalance_tiers(sim) -> list[TierMigrationReport]:
    """The background tier-migration pass: migrate every volume whose
    current assignment disagrees with the chooser's recommendation.
    Returns one conservation report per migrated volume."""
    check_pinning(sim.store)
    reports: list[TierMigrationReport] = []
    for name, want in recommend_tiers(sim).items():
        if sim.store.tier_of(name) != want:
            reports.append(migrate_volume_tier(sim, name, want))
    return reports
