"""Cinder-style filter/weigher volume scheduler.

Placement runs in two fixed stages, the same architecture OpenStack
Cinder uses for its volume scheduler:

1. **Filters** prune: every candidate shard must pass both filters
   (capacity with slack, QoS headroom).
2. **Weighers** rank: each weigher scores the survivors, the scores
   are min–max normalized to [0, 1] per weigher, and a weighted sum
   (the multipliers of :func:`_weighers`) orders the candidates.

The winner is the highest-weight survivor; ties break on the lower
``shard_id``, so a placement is a pure function of the request and the
stats snapshot — independent of candidate iteration order, worker
count, or dict ordering.  :class:`RandomPlacer` is the control arm for
the placement-quality experiment: seeded uniform choice among the
shards that merely *fit* the volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..common.errors import PlacementError
from ..common.rng import make_rng
from .stats import ShardStats
from .volumes import VolumeRequest

__all__ = [
    "CapacityFilter",
    "QosHeadroomFilter",
    "FreeSpaceWeigher",
    "AAPressureWeigher",
    "HeadroomWeigher",
    "TailLatencyWeigher",
    "Placement",
    "FilterScheduler",
    "RandomPlacer",
]


# ----------------------------------------------------------------------
# Filters
# ----------------------------------------------------------------------


#: Fraction of a shard's projected free blocks one placement may fill;
#: the rest is slack held back for COW churn and metadata.
CAPACITY_SLACK = 0.9


class CapacityFilter:
    """The volume's logical size must fit in the shard's projected free
    space, with :data:`CAPACITY_SLACK` held back."""

    name = "capacity"

    def passes(self, request: VolumeRequest, stats: ShardStats) -> bool:
        return request.logical_blocks <= stats.projected_free_blocks * CAPACITY_SLACK


#: QoS headroom: total committed offered load admitted per shard, as a
#: multiple of the shard's calibrated capacity.
HEADROOM_FRACTION = 3.0


class QosHeadroomFilter:
    """Total committed offered load (fractions of calibrated capacity)
    must stay under the oversubscription headroom after placement."""

    name = "qos-headroom"

    def __init__(self, headroom: float = HEADROOM_FRACTION) -> None:
        self.headroom = float(headroom)

    def passes(self, request: VolumeRequest, stats: ShardStats) -> bool:
        return (
            stats.committed_fraction + request.offered_fraction <= self.headroom
        )


# ----------------------------------------------------------------------
# Weighers (raw scores; the scheduler normalizes per weigher)
# ----------------------------------------------------------------------


class FreeSpaceWeigher:
    """Prefer shards with more projected free space (fraction of total,
    so differently sized shards compare fairly)."""

    name = "free-space"

    def weigh(self, request: VolumeRequest, stats: ShardStats) -> float:
        if stats.total_blocks <= 0:
            return 0.0
        return stats.projected_free_blocks / stats.total_blocks


class AAPressureWeigher:
    """Prefer shards whose AA caches still surface emptier allocation
    areas (the TopAA/HBPS best-available score): low scores mean every
    write pays the fragmented-AA tax regardless of load."""

    name = "aa-pressure"

    def weigh(self, request: VolumeRequest, stats: ShardStats) -> float:
        return stats.aa_free_fraction


class HeadroomWeigher:
    """Prefer shards with less committed offered load.  Commitment is
    *provisioned*, not measured, so this steers placements away from a
    shard the moment an aggressor lands on it — one refresh earlier
    than any measured signal can."""

    name = "headroom"

    def weigh(self, request: VolumeRequest, stats: ShardStats) -> float:
        return -stats.committed_fraction


class TailLatencyWeigher:
    """Prefer shards with a low measured worst-tenant p99 from the last
    epoch — the direct noisy-neighbor signal: a shard hosting a
    saturating tenant shows it here before free space moves at all."""

    name = "tail-latency"

    def weigh(self, request: VolumeRequest, stats: ShardStats) -> float:
        return -stats.worst_p99_ms


@dataclass(frozen=True)
class Placement:
    """One scheduling decision, with its audit trail."""

    volume: str
    shard_id: int
    #: Final combined weight of the winner.
    weight: float
    #: Shards that survived filtering (sorted ids).
    candidates: tuple[int, ...]
    #: ``filter name -> shard ids it rejected`` (sorted).
    rejected: dict[str, tuple[int, ...]]


def _weighers() -> list[tuple[object, float]]:
    """The weighers with their multipliers (Cinder-style weighted sum).

    Free space and AA pressure are kept below the headroom multiplier
    on purpose: min–max normalization stretches even trivial free-space
    differences to [0, 1], so an evenly filled fleet would otherwise
    let noise-level block deltas outvote large committed-load
    differences.  Committed load (provisioned QoS) is the dominant
    signal until measured stats exist.
    """
    return [
        (FreeSpaceWeigher(), 0.5),
        (AAPressureWeigher(), 0.5),
        (HeadroomWeigher(), 2.0),
        (TailLatencyWeigher(), 1.0),
    ]


class FilterScheduler:
    """Filter then weigh; deterministic tie-break on ``shard_id``.

    ``headroom_fraction`` is the QoS admission bound
    (:data:`HEADROOM_FRACTION` unless widened).
    """

    name = "filter-weigher"

    def __init__(self, *, headroom_fraction: float = HEADROOM_FRACTION) -> None:
        if not (math.isfinite(headroom_fraction) and headroom_fraction > 0):
            raise ValueError(
                f"headroom_fraction must be positive and finite, got {headroom_fraction}"
            )
        self.filters = [CapacityFilter(), QosHeadroomFilter(headroom_fraction)]
        self.weighers = _weighers()

    def place(
        self, request: VolumeRequest, stats: Sequence[ShardStats]
    ) -> Placement:
        """Pick the shard for one request and project the placement
        into the winner's stats snapshot."""
        ordered = sorted(
            (s for s in stats if s.alive), key=lambda s: s.shard_id
        )
        rejected: dict[str, list[int]] = {f.name: [] for f in self.filters}
        survivors: list[ShardStats] = []
        for s in ordered:
            ok = True
            for f in self.filters:
                if not f.passes(request, s):
                    rejected[f.name].append(s.shard_id)
                    ok = False
                    break
            if ok:
                survivors.append(s)
        if not survivors:
            detail = ", ".join(
                f"{name} rejected {ids}" for name, ids in rejected.items() if ids
            )
            raise PlacementError(
                f"no shard passes all filters for {request.name!r} "
                f"({detail or 'no live shards'})"
            )
        # Min–max normalize each weigher across the survivors (the
        # Cinder convention: a weigher with no spread contributes
        # equally to everyone), then combine with multipliers.
        weights = [0.0] * len(survivors)
        for weigher, mult in self.weighers:
            raw = [weigher.weigh(request, s) for s in survivors]
            lo, hi = min(raw), max(raw)
            span = hi - lo
            for i, r in enumerate(raw):
                norm = (r - lo) / span if span > 0.0 else 1.0
                weights[i] += mult * norm
        best_i = min(
            range(len(survivors)),
            key=lambda i: (-weights[i], survivors[i].shard_id),
        )
        winner = survivors[best_i]
        winner.note_placement(request)
        return Placement(
            volume=request.name,
            shard_id=winner.shard_id,
            weight=weights[best_i],
            candidates=tuple(s.shard_id for s in survivors),
            rejected={
                name: tuple(ids) for name, ids in rejected.items() if ids
            },
        )


class RandomPlacer:
    """Control arm: seeded uniform choice among shards that merely fit
    (capacity filter only).  Deterministic given seed and call order."""

    name = "random"

    def __init__(self, *, seed: int = 0) -> None:
        self._fit = CapacityFilter()
        self.rng = make_rng(seed)

    def place(
        self, request: VolumeRequest, stats: Sequence[ShardStats]
    ) -> Placement:
        survivors = sorted(
            (s for s in stats if s.alive and self._fit.passes(request, s)),
            key=lambda s: s.shard_id,
        )
        if not survivors:
            raise PlacementError(
                f"no live shard has capacity for {request.name!r}"
            )
        winner = survivors[int(self.rng.integers(len(survivors)))]
        winner.note_placement(request)
        return Placement(
            volume=request.name,
            shard_id=winner.shard_id,
            weight=0.0,
            candidates=tuple(s.shard_id for s in survivors),
            rejected={},
        )
