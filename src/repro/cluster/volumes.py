"""Tenant volume requests and the fleet request builder.

A :class:`VolumeRequest` is what arrives at the cluster scheduler: a
named FlexVol of a given size with a traffic *profile* (which arrival
process and op mix the tenant will run), an offered-load fraction, and
an optional bounded admission queue.  Requests are frozen dataclasses
of primitives so they pickle across the shard process pool and
serialize into result JSON.

:func:`noisy_fleet_requests` builds, from one seed, the deterministic
noisy-neighbor fleet the placement-quality experiment uses —
unthrottled aggressors that saturate whatever shard they land on,
QoS-protected victims whose tail latency measures placement quality,
and bursty/moderate bystanders filling out the population.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from ..common.rng import make_rng

__all__ = ["PROFILES", "VolumeRequest", "noisy_fleet_requests"]

#: Tenant traffic shapes a shard knows how to drive (see
#: :meth:`repro.cluster.shard.ShardRuntime._tenant_specs`).
PROFILES = ("uniform", "aggressor", "victim", "onoff")


@dataclass(frozen=True)
class VolumeRequest:
    """One tenant volume awaiting placement on some shard."""

    name: str
    logical_blocks: int
    #: Offered load as a fraction of the *hosting* shard's calibrated
    #: capacity (an aggressor offers >1: it saturates any shard).
    offered_fraction: float = 0.05
    profile: str = "uniform"
    #: Bounded admission queue depth (``None`` = unbounded).
    queue_depth: int | None = None

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r}; pick one of {PROFILES}"
            )
        if self.logical_blocks <= 0:
            raise ValueError("logical_blocks must be positive")
        if not (math.isfinite(self.offered_fraction) and self.offered_fraction > 0):
            raise ValueError("offered_fraction must be positive and finite")
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")

    def as_dict(self) -> dict:
        return asdict(self)


#: Mean tenant volume size of the noisy fleet (blocks; each size is
#: drawn within +/-25 % of it).
FLEET_VOLUME_BLOCKS = 640


def noisy_fleet_requests(n: int, *, seed: int = 0) -> list[VolumeRequest]:
    """The placement-quality fleet: one aggressor and one victim per
    eight tenants, one on/off burster per eight, moderates in between.

    The aggressor offers 1.2x whatever shard hosts it (unthrottled),
    so a shard with two aggressors is deeply saturated while a shard
    with none idles — exactly the contrast where filter/weigher
    placement beats random placement on the victims' p99.
    """
    rng = make_rng(seed)
    sizes = rng.integers(
        int(FLEET_VOLUME_BLOCKS * 0.75), int(FLEET_VOLUME_BLOCKS * 1.25) + 1, size=n
    )
    loads = rng.uniform(0.02, 0.06, size=n)
    out: list[VolumeRequest] = []
    for i in range(n):
        name = f"vol{i:04d}"
        size = int(sizes[i])
        slot = i % 8
        if slot == 0:
            out.append(
                VolumeRequest(
                    name=name,
                    logical_blocks=size,
                    offered_fraction=1.2,
                    profile="aggressor",
                )
            )
        elif slot == 1:
            # Victims burst: offered_fraction is the ON-period rate
            # (~8% duty cycle, so the mean load is modest).  The burst
            # exceeds the SFQ fair share only on a shard that also
            # hosts a persistently backlogged aggressor, so victim p99
            # measures exactly what placement controls.  The bounded
            # admission queue caps the damage (and gives the chaos
            # drill its p99 bound).
            out.append(
                VolumeRequest(
                    name=name,
                    logical_blocks=size,
                    offered_fraction=0.6,
                    profile="victim",
                    queue_depth=64,
                )
            )
        elif slot == 2:
            out.append(
                VolumeRequest(
                    name=name,
                    logical_blocks=size,
                    offered_fraction=0.15,
                    profile="onoff",
                )
            )
        else:
            out.append(
                VolumeRequest(
                    name=name,
                    logical_blocks=size,
                    offered_fraction=float(loads[i]),
                )
            )
    return out
