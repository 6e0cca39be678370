"""The drill vocabulary: everything a schedule can do to one aggregate.

Each event is a frozen record of the parameters a script used to pass,
``fire(drill)`` calls the subsystem mechanism that does the work and
returns its evidence, and ``check(drill, step, earlier)`` refuses —
with :class:`FaultError`, before the drill's first step — a firing the
subject cannot take once the ``earlier`` ``(step, event)`` pairs have
fired.  (The fleet events ``MigrateShard``, ``KillShard``
and ``Evacuate`` live in :mod:`repro.cluster`, above this package.)
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

from ..common.errors import FaultError, TieringError
from ..common.retry import RetryBudget
from ..core.policies import BitmapWalkSource
from ..crash.explorer import CrashOutcome, Replay, crash_at_edge, sweep_crash_points
from ..crash.registry import record_crash_points
from ..faults.injector import FaultKind, corrupt_bytes, flip_bitmap_bits
from ..faults.recovery import escalate, exit_degraded, instances
from ..fs.iron import scan
from ..fs.mount import DEFAULT_MOUNT_RETRIES, MountReport, export_topaa, simulate_mount
from ..fs.segment_cleaner import CleanReport, clean_best_aas
from ..tiering.migration import (
    TierMigrationReport,
    check_pinning,
    migrate_volume_tier,
    rebalance_tiers,
)

__all__ = [
    "FailDisk",
    "ReplaceDisk",
    "FlipBits",
    "ArmFault",
    "CorruptTopAA",
    "Mount",
    "Scrub",
    "RebuildCaches",
    "Snapshot",
    "DeleteSnapshot",
    "SetFreeBudget",
    "CleanAAs",
    "MigrateTier",
    "RebalanceTiers",
    "CrashAt",
]

def _known_label(drill, where: str) -> None:
    labels = sorted(instances(drill.sim))
    if where not in labels:
        raise FaultError(f"unknown fault target {where!r}; this subject has {labels}")


def _failed_disks(drill, earlier) -> set[tuple[int, int]]:
    """Data disks down once ``earlier`` has fired: ``(group, disk)``."""
    down = {
        (g, d)
        for g, group in enumerate(drill.sim.store.groups)
        for d, dev in enumerate(group.data_devices)
        if dev.failed
    }
    for _, event in earlier:
        if isinstance(event, FailDisk):
            down.add((event.group, event.disk))
        elif isinstance(event, ReplaceDisk):
            down.discard((event.group, event.disk))
    return down


def _check_pinning(drill, event) -> None:
    """Tier events re-pin volumes: refused unless the aggregate can."""
    try:
        check_pinning(drill.sim.store)
    except TieringError as e:
        raise FaultError(f"{event}: {e}") from None


def _pinned(drill, earlier, volume: str) -> set[str]:
    """Snapshot names ``volume`` holds once ``earlier`` has fired."""
    if volume not in drill.sim.vols:
        raise FaultError(f"unknown volume {volume!r}; have {sorted(drill.sim.vols)}")
    held = set(drill.sim.vols[volume].snapshots)
    for _, event in earlier:
        if isinstance(event, Snapshot) and event.volume == volume:
            held.add(event.name)
        elif isinstance(event, DeleteSnapshot) and event.volume == volume:
            held.discard(event.name)
    return held


# ----------------------------------------------------------------------
# Disks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FailDisk:
    """Data disk ``disk`` of RAID group ``group`` (the aggregate's
    global group index) dies."""

    group: int
    disk: int

    def check(self, drill, step, earlier) -> None:
        down = _failed_disks(drill, earlier)
        groups = drill.sim.store.groups
        if not (0 <= self.group < len(groups)
                and 0 <= self.disk < len(groups[self.group].data_devices)):
            raise FaultError(f"{self}: no such data disk")
        already = sum(1 for g, _ in down - {(self.group, self.disk)} if g == self.group)
        if already >= groups[self.group].geometry.nparity:
            raise FaultError(f"{self} would exceed group {self.group}'s parity budget")

    def fire(self, drill) -> None:
        drill.sim.store.fail_disk(self.group, self.disk)


@dataclass(frozen=True)
class ReplaceDisk:
    """The failed disk is replaced and rebuilt from parity (evidence:
    the rebuild's modeled microseconds)."""

    group: int
    disk: int

    def check(self, drill, step, earlier) -> None:
        if (self.group, self.disk) not in _failed_disks(drill, earlier):
            raise FaultError(f"{self}: no earlier event failed that disk")

    def fire(self, drill) -> float:
        us = drill.sim.store.groups[self.group].replace_disk(self.disk)
        drill.log.rebuild_us += us
        return us


# ----------------------------------------------------------------------
# Silent damage, armed read faults, mount, scrub
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlipBits:
    """``count`` bitmap bits of ``where`` flip behind the accounting's
    back: ``"set"`` is a lost free (Iron: leaked), ``"clear"`` a torn
    write losing allocations (Iron: corrupt).  A :class:`Scrub` finds
    and repairs them."""

    where: str
    count: int
    direction: str

    def check(self, drill, step, earlier) -> None:
        _known_label(drill, self.where)
        if self.direction not in ("set", "clear") or self.count <= 0:
            raise FaultError(f"{self}: need a positive count and 'set' or 'clear'")

    def fire(self, drill) -> dict[str, int]:
        bitmap = instances(drill.sim)[self.where].metafile.bitmap
        return flip_bitmap_bits(bitmap, self.count, drill.rng, self.direction)


@dataclass(frozen=True)
class ArmFault:
    """The next ``count`` reads of ``where`` fail with read fault ``kind``."""

    where: str
    kind: str
    count: int

    def check(self, drill, step, earlier) -> None:
        _known_label(drill, self.where)
        if self.kind not in FaultKind.ALL or self.count <= 0:
            raise FaultError(f"{self}: need a positive count and a kind in {FaultKind.ALL}")

    def fire(self, drill) -> None:
        drill.injector().arm(self.where, self.kind, self.count)


@dataclass(frozen=True)
class CorruptTopAA:
    """``count`` bytes of ``where``'s persisted TopAA page take a bit
    flip; the next :class:`Mount` must fall back to its bitmap walk."""

    where: str
    count: int

    def check(self, drill, step, earlier) -> None:
        _known_label(drill, self.where)

    def fire(self, drill) -> None:
        if drill.topaa is None:
            drill.topaa = export_topaa(drill.sim)
        page = drill.topaa.page_for(self.where)
        if page is not None:
            drill.topaa.put(self.where, corrupt_bytes(page, self.count, drill.rng))


@dataclass(frozen=True)
class Mount:
    """Remount from the TopAA image (evidence: the mount report)."""

    def fire(self, drill) -> MountReport:
        image, drill.topaa = drill.topaa, None
        if image is None:
            image = export_topaa(drill.sim)
        report = simulate_mount(drill.sim, image)
        report.build_wall_s = 0.0  # the one wall clock: a log replays byte-identically
        return report


@dataclass(frozen=True)
class Scrub:
    """Iron scan; exactly the damaged instances enter degraded
    allocation and are repaired in place; ``window`` more steps are
    served from the bitmap walk (the rebuild time), then
    :class:`RebuildCaches` fires.  Evidence: the Iron findings detected
    and repaired, and the instances escalated."""

    window: int = 2

    def fire(self, drill) -> dict:
        found = scan(drill.sim)
        wheres = sorted(found.by_where())
        repaired = escalate(drill.sim, wheres)
        if wheres:
            drill.after(self.window + 1, RebuildCaches())
        return {"detected": found.findings, "repaired": repaired.findings, "escalated": wheres}


@dataclass(frozen=True)
class RebuildCaches:
    """Every degraded file system gets a fresh AA cache from a charged
    bitmap walk and returns to the cached fast path.  Evidence: AAs the
    bitmap-walk sources handed out and bits they scanned while degraded,
    metafile blocks the rebuild read, transient retries it absorbed."""

    def fire(self, drill) -> dict:
        selects = bits = 0
        for fs in drill.sim.spaces():
            if fs.degraded_alloc and isinstance(fs.source, BitmapWalkSource):
                selects += fs.source.selects
                bits += fs.source.bits_scanned
        budget = RetryBudget(DEFAULT_MOUNT_RETRIES)
        blocks = exit_degraded(drill.sim, budget=budget)
        return {"selects": selects, "bits_scanned": bits,
                "blocks_read": blocks, "retries": budget.used}


# ----------------------------------------------------------------------
# Snapshots, delayed frees, cleaning, tiers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Snapshot:
    """``volume`` takes snapshot ``name`` (evidence: blocks pinned)."""

    volume: str
    name: str

    def check(self, drill, step, earlier) -> None:
        if self.name in _pinned(drill, earlier, self.volume):
            raise FaultError(f"{self}: the volume already holds that snapshot")

    def fire(self, drill) -> int:
        return drill.sim.create_snapshot(self.volume, self.name)


@dataclass(frozen=True)
class DeleteSnapshot:
    """Snapshot ``name`` is deleted; its blocks enter the delayed-free
    logs (evidence: physical blocks released)."""

    volume: str
    name: str

    def check(self, drill, step, earlier) -> None:
        if self.name not in _pinned(drill, earlier, self.volume):
            raise FaultError(f"{self}: the volume holds no such snapshot")

    def fire(self, drill) -> int:
        return drill.sim.delete_snapshot(self.volume, self.name)


@dataclass(frozen=True)
class SetFreeBudget:
    """Each CP applies at most ``metafile_blocks`` worth of delayed
    frees per instance, fullest first (None: all of them)."""

    metafile_blocks: int | None

    def check(self, drill, step, earlier) -> None:
        if self.metafile_blocks is not None and self.metafile_blocks <= 0:
            raise FaultError(f"{self}: a free budget is positive or None")

    def fire(self, drill) -> None:
        drill.sim.set_free_budget(self.metafile_blocks)


@dataclass(frozen=True)
class CleanAAs:
    """The segment cleaner empties the ``n_aas`` best AAs of ``group``."""

    group: int
    n_aas: int

    def check(self, drill, step, earlier) -> None:
        groups = drill.sim.store.groups
        if not 0 <= self.group < len(groups) or self.n_aas <= 0:
            raise FaultError(f"{self}: no such RAID group, or nothing to clean")
        # The cleaner picks from the AA cache, so not inside a scrub's
        # degraded window (RebuildCaches fires ahead of the step it lands on).
        if groups[self.group].cache is None or any(
            isinstance(e, Scrub) and s <= step <= s + e.window for s, e in earlier
        ):
            raise FaultError(f"{self}: the group's AA cache may be offline at this step")

    def fire(self, drill) -> CleanReport:
        return clean_best_aas(drill.sim, self.group, self.n_aas)


@dataclass(frozen=True)
class MigrateTier:
    """Every mapped block of ``volume``, snapshots' included, moves onto
    tier ``target``."""

    volume: str
    target: str

    def check(self, drill, step, earlier) -> None:
        _check_pinning(drill, self)
        if self.target not in drill.sim.store.labels:
            raise FaultError(f"{self}: the subject has no tier {self.target!r}")
        if self.volume not in drill.sim.vols:
            raise FaultError(f"{self}: the subject has no such volume")

    def fire(self, drill) -> TierMigrationReport:
        return migrate_volume_tier(drill.sim, self.volume, self.target)


@dataclass(frozen=True)
class RebalanceTiers:
    """The background pass: every volume the chooser would place
    elsewhere migrates there (evidence: one report per move)."""

    def check(self, drill, step, earlier) -> None:
        _check_pinning(drill, self)

    def fire(self, drill) -> list[TierMigrationReport]:
        return rebalance_tiers(drill.sim)


# ----------------------------------------------------------------------
# Crashes
# ----------------------------------------------------------------------
def _fingerprint(subject, stats) -> tuple:
    """Everything a replayed step must reproduce exactly."""
    admission = getattr(subject, "admission", None)
    tenants = admission() if admission is not None else ()
    if stats is None:
        return tenants, None
    return tenants, (
        stats.ops,
        stats.physical_blocks,
        stats.virtual_blocks,
        stats.blocks_freed,
        tuple(sorted(stats.ops_by_source.items())),
    )


@dataclass(frozen=True)
class CrashAt:
    """The coming step crashes — on deep copies; the subject itself
    then takes the step for real, and its engine commits each CP.

    ``edge="every"`` sweeps every span edge of the step
    (:func:`~repro.crash.explorer.sweep_crash_points`).
    ``edge="seeded"`` crashes one edge drawn from the drill's stream,
    then replays the lost step twice from independent copies of the
    pre-crash state — admission is durable, CP commitment is not — and
    requires bit-identical outcomes.  Each crash is recovered through
    the real mount path and verified (audit, Iron, byte-equality with
    the committed image, SSDs still holding every allocated block).
    Evidence: one :class:`CrashOutcome` per crash.
    """

    edge: str = "every"
    crashes = True

    def check(self, drill, step, earlier) -> None:
        if self.edge not in ("every", "seeded"):
            raise FaultError(f"{self}: edge is 'every' or 'seeded'")

    def fire(self, drill) -> list[CrashOutcome]:
        subject, model = drill.subject, drill.model
        step, sim_of = (lambda s: s.step()), (lambda s: s.sims()[0])
        if self.edge == "every":
            return sweep_crash_points(subject, step, model, sim_of=sim_of)
        probe = copy.deepcopy(subject)
        edges = record_crash_points(probe.step)
        point = edges[int(drill.rng.integers(0, len(edges)))]
        outcome = crash_at_edge(subject, step, model, edges, point, sim_of)
        replay, shadow = copy.deepcopy(subject), copy.deepcopy(subject)
        stats, shadow_stats = replay.step(), shadow.step()
        agreed = _fingerprint(replay, stats) == _fingerprint(shadow, shadow_stats)
        ops = dict(stats.ops_by_source) if stats is not None else {}
        return [replace(outcome, replay=Replay(drill.step, agreed, ops))]
