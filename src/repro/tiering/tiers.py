"""Typed tier roles and the per-volume tier/geometry chooser.

The paper's evaluation spans media families with very different
write-allocation behavior (section 2.1: HDD and SSD RAID groups, SMR,
object stores).  A heterogeneous aggregate composes several of them
into one physical VBN space; the chooser here decides which declared
tier should host each volume, from the volume's declared workload hint
and — for undeclared ("mixed") volumes — the measured op mix of a
prior run (via :meth:`~repro.sim.stats.MetricsLog.query`).
"""

from __future__ import annotations

import enum
from typing import Sequence

from ..common.config import TierSpec
from ..common.errors import TieringError
from ..sim.stats import MetricsLog

__all__ = ["Tier", "media_role", "choose_tier"]


class Tier(enum.Enum):
    """Service-tier roles a heterogeneous aggregate can offer.

    This replaces the historical ``tier="fast"`` string plumbing: code
    that needs to talk about tiers passes these members (or their
    ``.value`` where a wire format needs a string).
    """

    #: Low-latency overwrite tier (SSD groups).
    FAST = "fast"
    #: Bulk capacity tier (HDD / SMR groups).
    CAPACITY = "capacity"
    #: Cold-data tier (object store backends).
    ARCHIVE = "archive"


#: Media ordered fastest-first for chooser tie-breaking.
_SPEED = {"ssd": 0, "hdd": 1, "smr": 2, "object": 3}


def media_role(media: str) -> Tier:
    """The service role a media family fills (the fleet scheduler uses
    this to advertise what roles a shard's devices can serve)."""
    if media == "ssd":
        return Tier.FAST
    if media == "object":
        return Tier.ARCHIVE
    return Tier.CAPACITY


def choose_tier(
    tiers: Sequence[TierSpec],
    workload: str,
    *,
    metrics: MetricsLog | None = None,
) -> str:
    """Pick the tier (by label) that should host a volume.

    ``workload`` is the volume's declared hint; ``metrics`` — when
    given — resolves "mixed" volumes from the measured op mix: a low
    full-stripe fraction means the run was dominated by small random
    overwrites (treat as OLTP), a high one means large sequential
    writes (treat as sequential churn).

    Preference order by workload:

    * ``oltp`` — mirrored SSD first (overwrites pay no parity RMW and
      no seek), then any SSD, then faster media.
    * ``sequential`` — dual-parity capacity media first (RAID-DP SMR,
      then RAID-DP HDD: full stripes amortize the double parity and
      zone/track-friendly sequential streams suit shingled media).
    * ``archive`` — object tier, then the slowest media present.
    * ``mixed`` — measured op mix when available, else the largest
      tier by physical capacity.

    Ties break toward the earliest declared tier.
    """
    if not tiers:
        raise TieringError("choose_tier: no tiers declared")
    if workload == "mixed":
        if metrics is not None and metrics.cps:
            fsf = metrics.query("full_stripe_fraction")
            workload = "sequential" if fsf >= 0.5 else "oltp"
        else:
            return max(tiers, key=lambda t: t.physical_blocks).label
    if workload == "oltp":

        def key(t: TierSpec):
            return (
                not (t.media == "ssd" and t.raid == "mirror"),
                _SPEED[t.media],
                t.raid != "mirror",
            )

    elif workload == "sequential":
        # Capacity media first (shingled zones love sequential streams),
        # and never the object tier ahead of local media.
        churn_order = {"smr": 0, "hdd": 1, "ssd": 2, "object": 3}

        def key(t: TierSpec):
            return (
                not (t.raid == "raid_dp" and t.media in ("smr", "hdd")),
                churn_order[t.media],
            )

    elif workload == "archive":

        def key(t: TierSpec):
            return (t.media != "object", -_SPEED[t.media])

    else:
        raise TieringError(f"choose_tier: unknown workload hint {workload!r}")
    return min(tiers, key=key).label
