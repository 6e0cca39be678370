"""Degraded-mode recovery orchestration.

The self-healing sequence after detected metafile damage:

1. :func:`escalate` — put the damaged file systems (and only those)
   into degraded allocation (direct bitmap walk) and run a *scoped*
   :func:`repro.fs.iron.repair` that recomputes their bitmaps and
   score keepers from the reference maps, leaving the AA caches
   offline.  Allocation keeps succeeding throughout — the graceful
   degradation the paper attributes to caches being an optimization,
   never a correctness dependency.
2. Run CPs in this state for as long as the operator likes; the
   :class:`~repro.core.policies.BitmapWalkSource` counts its selects
   and scanned bits (the cost of running cache-less).
3. :func:`exit_degraded` — rebuild fresh AA caches from a charged
   bitmap walk and swap them in, returning the system to the cached
   fast path.
"""

from __future__ import annotations

from ..common.errors import MountError
from ..common.retry import RetryBudget, retry_with_backoff
from ..core.space import AllocSpace
from ..fs.filesystem import WaflSim
from ..fs.iron import IronReport, repair
from ..fs.mount import DEFAULT_MOUNT_RETRIES

__all__ = ["attach_everywhere", "instances", "degraded_instances", "escalate", "exit_degraded"]


def instances(sim: WaflSim) -> dict[str, AllocSpace]:
    """All fault-addressable file-system instances by ``where`` label
    (``sim`` may also be the simulator's ``CPEngine``)."""
    return {fs.where: fs for fs in sim.spaces()}


def attach_everywhere(sim: WaflSim, injector) -> None:
    """Attach one injector to every read path in the simulator."""
    sim.store.attach_injector(injector)
    for vol in sim.vols.values():
        vol.attach_injector(injector)


def degraded_instances(sim: WaflSim) -> list[str]:
    """Labels of file systems currently allocating via the bitmap walk."""
    return [w for w, fs in instances(sim).items() if fs.degraded_alloc]


def escalate(sim: WaflSim, wheres) -> IronReport:
    """Scoped Iron escalation for damaged file systems.

    Each named instance enters degraded allocation, then a scoped
    repair rewrites its bitmap and score keeper from the reference
    maps (``rebuild_caches=False`` keeps the caches offline — the
    degraded window models the rebuild time).  Returns the repair
    report: exactly the findings that were fixed.
    """
    scope = set(wheres)
    if not scope:
        return IronReport(repaired=True)
    by_where = instances(sim)
    unknown = sorted(scope - set(by_where))
    if unknown:
        raise MountError(
            f"escalate: unknown file-system labels {unknown}; "
            f"valid labels are {sorted(by_where)}"
        )
    for where in sorted(scope):
        fs = by_where[where]
        if not fs.degraded_alloc:
            fs.enter_degraded()
    return repair(sim, scope=scope, rebuild_caches=False)


def exit_degraded(sim: WaflSim, *, budget: RetryBudget | None = None) -> int:
    """Rebuild AA caches for every degraded file system and swap them
    in (the background rebuild completing).  Charges one bitmap walk
    per rebuilt cache; returns the number of metafile blocks read.

    Walks retry transient faults from ``budget`` (a fresh bounded
    budget when omitted) and raise the typed
    :class:`~repro.common.errors.RecoveryExhaustedError` when it runs
    dry, instead of dying on the first transient hiccup."""
    if budget is None:
        budget = RetryBudget(DEFAULT_MOUNT_RETRIES)
    blocks_read = 0
    for fs in sim.spaces():
        if not fs.degraded_alloc:
            continue
        blocks, _, _ = retry_with_backoff(
            fs.read_metafile, budget=budget, base_backoff_us=0.0, where=fs.where
        )
        blocks_read += blocks
        fs.rebuild_cache()
    return blocks_read
