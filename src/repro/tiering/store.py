"""TieredStore: one store per tier, composed into one aggregate.

Each declared :class:`~repro.common.config.TierSpec` becomes one
*member* store — a :class:`~repro.fs.aggregate.RAIDStore` (RAID 4 /
RAID-DP / mirrored groups of HDD, SSD, or SMR devices) or a
:class:`~repro.fs.aggregate.LinearStore` (object backend).  The members
are stock single-tier stores, each built at its tier's base in the
aggregate VBN space, so they allocate and accept frees in global VBNs
and nothing is rebased at this boundary.  A Flash Pool (paper section
2.1) is such an aggregate of an SSD tier and a capacity tier with a
:class:`~repro.tiering.policies.FlashPoolPolicy` attached.

The store implements the same structural surface the CP engine, Iron,
the auditor, and the recovery orchestrator already consume —
``allocate`` / ``log_free`` / ``cp_boundary`` / ``physical_instances``
— plus per-tier addressing (:meth:`allocate_in`, :meth:`tier_usage`)
for the tier policies in :mod:`repro.tiering.policies`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..common.config import AggregateSpec, TierSpec
from ..common.errors import TieringError
from ..common.rng import make_rng
from ..fs.aggregate import (
    InstanceSurface,
    PolicyKind,
    RAIDStore,
    Store,
    StoreCPReport,
    TierPolicy,
    build_tier_store,
    route_frees,
)
from .tiers import choose_tier

__all__ = ["TieredStore", "make_tiered_store"]

#: Counter fields a merged :class:`StoreCPReport` sums over members.
_SUMMED_FIELDS = (
    "device_total_us",
    "metafile_blocks",
    "blocks_written",
    "blocks_freed",
    "full_stripes",
    "partial_stripes",
    "tetrises",
    "chains",
    "parity_reads",
    "reconstruction_reads",
    "degraded_stripes",
    "cache_ops",
    "aa_switches",
    "spanned_blocks",
)


class TieredStore(InstanceSurface):
    """One aggregate VBN space over per-tier member stores, each built
    at its tier's base (:func:`make_tiered_store`)."""

    #: See :attr:`repro.fs.aggregate.RAIDStore.tier_policy`; builders
    #: attach a :class:`~repro.tiering.policies.StaticTierPolicy`.
    tier_policy: TierPolicy | None = None

    def __init__(self, tiers: list[TierSpec], members: list[Store]) -> None:
        if len(tiers) != len(members) or not tiers:
            raise TieringError("TieredStore needs one member store per tier")
        self.tiers = list(tiers)
        self.members = list(members)
        self.labels = [t.label for t in self.tiers]
        self.bases: list[int] = []
        offset = 0
        group_index = 0
        for tier, member in zip(self.tiers, self.members):
            if member.nblocks != tier.physical_blocks:
                raise TieringError(
                    f"tier {tier.label!r}: member store has {member.nblocks} "
                    f"blocks but the spec declares {tier.physical_blocks}"
                )
            base = member.physical_instances()[0][2]
            if base != offset:
                raise TieringError(
                    f"tier {tier.label!r}: member store starts at VBN {base}, "
                    f"not at its base {offset}"
                )
            self.bases.append(offset)
            offset += member.nblocks
            # Fault/Iron addressing labels must be unique across the
            # whole aggregate: renumber RAID groups globally and tag
            # linear members with their tier label.
            if isinstance(member, RAIDStore):
                for g in member.groups:
                    g.where = f"group:{group_index}"
                    group_index += 1
            else:
                member.where = f"store:{tier.label}"
        self.nblocks = offset
        self._bounds = np.asarray(self.bases + [self.nblocks], dtype=np.int64)

    # ------------------------------------------------------------------
    # Tier addressing
    # ------------------------------------------------------------------
    def tier_usage(self) -> dict[str, dict[str, int]]:
        """Per-tier capacity snapshot: total, used, and free blocks."""
        out: dict[str, dict[str, int]] = {}
        for tier, member in zip(self.tiers, self.members):
            free = member.free_count
            out[tier.label] = {
                "nblocks": member.nblocks,
                "used": member.nblocks - free,
                "free": free,
            }
        return out

    def allocate_in(self, labels: Sequence[str], n: int) -> np.ndarray:
        """Allocate up to ``n`` blocks from the tiers ``labels``, in
        that order of preference: each tier is asked for what the ones
        before it could not give.  Returns global VBNs."""
        members = []
        for label in labels:
            if label not in self.labels:
                raise TieringError(
                    f"unknown tier {label!r}; aggregate tiers: {self.labels}"
                )
            members.append(self.members[self.labels.index(label)])
        out: list[np.ndarray] = []
        got = 0
        for member in members:
            if got >= n:
                break
            take = member.allocate(n - got)
            if take.size:
                out.append(take)
                got += take.size
        if not out:
            return np.empty(0, dtype=np.int64)
        return out[0] if len(out) == 1 else np.concatenate(out)

    # ------------------------------------------------------------------
    # Store API (the surface the CP engine and WaflSim consume)
    # ------------------------------------------------------------------
    @property
    def groups(self):
        """All RAID groups across RAID-backed members (aging hooks and
        stripe reports iterate these; object members contribute none)."""
        return [g for m in self.members if isinstance(m, RAIDStore) for g in m.groups]

    def allocate(self, n: int) -> np.ndarray:
        """Tier-blind allocation: fill tiers in declaration order.
        Only reached when no tier policy is attached."""
        return self.allocate_in(self.labels, n)

    def log_free(self, vbns: np.ndarray) -> None:
        """Log global VBNs for freeing at the next CP boundary, with their tiers' members."""
        vbns = np.asarray(vbns, dtype=np.int64)
        if vbns.size == 0:
            return
        for i, glob in route_frees(vbns, self._bounds):
            self.members[i].log_free(glob)

    def charge_reads(self, n_random: int) -> None:
        """Queue client random reads, spread across tiers proportional
        to capacity (reads land where data lives; capacity is the
        deterministic stand-in for per-tier residency)."""
        if n_random <= 0:
            return
        left = n_random
        for i, member in enumerate(self.members):
            if i == len(self.members) - 1:
                share = left
            else:
                share = min(
                    left, int(round(n_random * member.nblocks / self.nblocks))
                )
            left -= share
            member.charge_reads(share)

    def cp_boundary(self) -> StoreCPReport:
        """Run every member's CP boundary and merge: counters sum,
        bottleneck busy time is the max over members (tiers flush in
        parallel), and each member's report lands in ``by_tier``."""
        report = StoreCPReport()
        busy: list[float] = []
        for tier, member in zip(self.tiers, self.members):
            r = member.cp_boundary()
            report.by_tier[tier.label] = r
            for f in _SUMMED_FIELDS:
                setattr(report, f, getattr(report, f) + getattr(r, f))
            report.groups.extend(r.groups)
            busy.append(r.device_busy_us)
        report.device_busy_us = max(busy) if busy else 0.0
        return report

    def physical_instances(self) -> list[tuple[str, object, int]]:
        """Every member's instances, in VBN order."""
        return [inst for member in self.members for inst in member.physical_instances()]


def make_tiered_store(
    spec: AggregateSpec,
    *,
    policy: PolicyKind = PolicyKind.CACHE,
    seed: int | np.random.Generator | None = None,
) -> TieredStore:
    """Build a :class:`TieredStore` from a multi-tier spec, with the
    build-time chooser's volume→tier assignments attached as a
    :class:`~repro.tiering.policies.StaticTierPolicy`.

    Member stores consume the shared ``seed`` generator in tier
    declaration order, so the same spec + seed reproduces the same
    aggregate bit for bit.
    """
    from .policies import StaticTierPolicy

    rng = make_rng(seed)
    members: list[Store] = []
    base = 0
    for tier in spec.tiers:
        members.append(build_tier_store(
            tier, base=base, policy=policy, threshold_fraction=spec.threshold_fraction,
            seed=rng,
        ))
        base += tier.physical_blocks
    store = TieredStore(list(spec.tiers), members)
    assignments = {
        v.name: choose_tier(spec.tiers, v.workload) for v in spec.volumes
    }
    store.tier_policy = StaticTierPolicy(
        assignments, default=choose_tier(spec.tiers, "mixed")
    )
    return store
