"""Fault injection and recovery (robustness extension).

Paper section 3.4 closes the failure story in one sentence: damaged
metafile blocks that RAID cannot reconstruct are recomputed by WAFL
Iron, because bitmaps, scores, and AA caches are all *derived* state.
This package makes that story executable: a seeded, deterministic
:class:`FaultInjector` drives latent sector errors, torn/lost writes,
and whole-disk failures through the stack, and the recovery machinery
(degraded RAID reads, checksummed TopAA pages, scoped Iron escalation,
bitmap-walk allocation) absorbs them with zero failed allocations.
What to inject when is a schedule of :mod:`repro.drill` events.
"""

from .injector import FaultInjector, FaultKind, corrupt_bytes, flip_bitmap_bits
from .recovery import (
    attach_everywhere,
    degraded_instances,
    escalate,
    exit_degraded,
    instances,
)

__all__ = [
    "FaultInjector",
    "FaultKind",
    "corrupt_bytes",
    "flip_bitmap_bits",
    "attach_everywhere",
    "degraded_instances",
    "escalate",
    "exit_degraded",
    "instances",
]
