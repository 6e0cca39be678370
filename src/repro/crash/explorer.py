"""Systematic crash-state exploration (CrashMonkey-style).

:func:`sweep_crash_points` first *dry-runs* one step on a deep copy of
its driver with a recording :class:`~repro.crash.registry.CrashTracer`
to enumerate the step's span edges — the crash points.  Then, for each
edge, it deep-copies the pristine pre-step state again, re-runs the
step with the tracer armed to crash at exactly that edge
(:func:`crash_at_edge`), captures the (possibly torn) shadow image when
the crash landed inside the persistence write window, recovers through
the real mount path, and verifies the recovered state four ways:

1. the full :func:`repro.analysis.auditor.audit_sim` invariant audit
   (bitmap popcounts, keeper totals, cache bins, delayed-free
   conservation, FlexVol map accounting, one owner per physical VBN);
2. the WAFL-Iron scan that audit carries (one reference pass serves
   both) — zero leaked, corrupt or shared blocks against the
   map/snapshot/pending references;
3. byte-equality: re-serializing the recovered file systems must
   reproduce the committed image's sealed pages bit for bit;
4. every live SSD data device and mirror twin still holds each block
   the recovered bitmaps allocate.

The pristine state is never touched: the caller (the ``CrashAt`` event
of :mod:`repro.drill`) runs the *real* step afterwards, whose CPs the
engine commits, so every crash point of step *n* is explored against
the committed image of step *n-1* — exactly the state WAFL guarantees a
crash recovers to (past ``run_cp``'s commit, the trial's own new image).
Everything is seeded: the same seed replays the same outcomes, and
:func:`crash_digest` hashes them.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from typing import Callable

from .. import obs
from ..analysis.auditor import audit_sim
from ..common.errors import CrashError
from ..fs.filesystem import WaflSim
from .persistence import PersistenceModel, capture_image
from .registry import CrashPoint, CrashTracer, boundary_enter_index, record_crash_points

__all__ = [
    "CrashOutcome",
    "Replay",
    "crash_at_edge",
    "crash_digest",
    "sweep_crash_points",
]


@dataclass(frozen=True)
class Replay:
    """How the step a seeded crash lost was replayed (the op log is
    durable, the CP is not: every admitted-but-uncommitted op must come
    back, every shed op must be shed again)."""

    #: Drill step the crash interrupted.
    step: int
    #: Two replays from independent copies of the pre-crash state agreed
    #: on admitted / rejected / dirtied-block outcomes.
    consistent: bool
    #: Per-tenant ops the replayed CP carried.
    ops: dict[str, int]


@dataclass(frozen=True)
class CrashOutcome:
    """One crash point explored: where it crashed and how recovery went."""

    #: Index the interrupted CP would have committed as (recovery lands
    #: on the committed CP ``cp_index - 1``).
    cp_index: int
    point: CrashPoint
    #: Crash landed at/after the ``cp.boundary`` enter edge, so shadow
    #: pages (and in-place TopAA pages) were mid-write and may be torn.
    in_write_window: bool
    #: Crash landed *after* ``run_cp``'s commit (possible when the step
    #: wraps ``run_cp``, e.g. a traffic step): recovery must land on the
    #: new CP, not the old one.
    post_commit: bool
    #: The injected CrashError actually fired (sanity: always True).
    crashed: bool
    #: Shadow pages whose checksum envelope detected the torn write.
    torn_pages: tuple[str, ...]
    #: Instances restored from the committed image.
    restored: int
    #: Retries consumed by the recovery's shared budget.
    retries: int
    #: Modeled time from crash to allocatable caches (us).
    recovery_us: float
    #: Everything that went wrong (empty == verified recovery).
    violations: tuple[str, ...]
    #: Set when the lost step was replayed (a seeded crash under load).
    replay: Replay | None = None

    @property
    def ok(self) -> bool:
        replayed = self.replay is None or self.replay.consistent
        return self.crashed and replayed and not self.violations

    def row(self) -> str:
        """Canonical one-line form (feeds :func:`crash_digest`, so both
        renderings — swept and replayed — are part of the baseline)."""
        status = "ok" if self.ok else "FAIL"
        where = (
            f"{self.point.label} window={int(self.in_write_window)} "
            f"post={int(self.post_commit)} torn={','.join(self.torn_pages) or '-'}"
        )
        if self.replay is None:
            return (
                f"cp={self.cp_index} {where} "
                f"restored={self.restored} retries={self.retries} {status}"
            )
        ops = ",".join(f"{k}={v}" for k, v in sorted(self.replay.ops.items()))
        return f"step={self.replay.step} {where} ops={ops or '-'} {status}"


def crash_digest(header: str, outcomes, committed_digests) -> str:
    """Content hash of a crash drill: every outcome's row and violations,
    then the committed timeline; same seed => same digest."""
    h = hashlib.sha256()
    h.update(header.encode())
    for o in outcomes:
        h.update(o.row().encode())
        h.update(b"|".join(v.encode() for v in o.violations))
    for d in committed_digests:
        h.update(d.encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Core sweep
# ----------------------------------------------------------------------
def _verify_recovered(model: PersistenceModel, sim: WaflSim) -> list[str]:
    """All four recovery checks; returns violation strings."""
    report = audit_sim(sim)
    problems = [str(v) for v in report.violations]
    problems.extend(str(f) for f in report.iron.findings)
    committed = model.committed
    if sim.engine.cp_index != committed.cp_index:
        problems.append(
            f"[engine] cp_index: recovered to {sim.engine.cp_index}, "
            f"committed image is CP {committed.cp_index}"
        )
    recaptured = capture_image(sim, cp_index=committed.cp_index)
    for where in sorted(set(committed.pages) | set(recaptured.pages)):
        a = committed.pages.get(where)
        b = recaptured.pages.get(where)
        if a is None or b is None:
            problems.append(f"[{where}] image: instance missing from one side")
        elif a != b:
            problems.append(
                f"[{where}] image: recovered state re-serializes differently "
                f"from the committed page"
            )
    for g in sim.store.groups:
        bpd = g.geometry.blocks_per_disk
        for d, dev in g.live_ssds():
            held = g.metafile.bitmap.allocated_in_range(d * bpd, (d + 1) * bpd) - d * bpd
            if lost := int((~dev.live(held)).sum()):
                problems.append(f"[{g.where}] {dev.name}: {lost} allocated blocks trimmed")
    return problems


def crash_at_edge(
    state,
    run_step: Callable[[object], object],
    model: PersistenceModel,
    edges: list[CrashPoint],
    point: CrashPoint,
    sim_of: Callable[[object], WaflSim],
) -> CrashOutcome:
    """Crash a deep copy of ``state`` at ``point`` (one of the step's
    recorded ``edges``), recover it, verify it; ``state`` is untouched.

    A crash before ``run_cp``'s commit recovers against ``model.committed``
    (with a torn shadow captured first when it landed inside the write
    window); one after it (a step that wraps ``run_cp``) recovers from
    the model the trial's engine committed.
    """
    window_start = boundary_enter_index(edges)
    trial = copy.deepcopy(state)
    prev = obs.install_tracer(CrashTracer(crash_at=point.index))
    crashed = False
    try:
        run_step(trial)
    except CrashError:
        crashed = True
    finally:
        obs.install_tracer(prev)
    sim = sim_of(trial)
    post_commit = sim.engine.cp_index > model.committed.cp_index
    in_window = not post_commit and window_start is not None and point.index >= window_start
    if post_commit:
        recovering = sim.engine.persistence
    else:
        recovering = model
        model.shadow = model.shadow_topaa = None
        if in_window:
            model.capture_shadow(sim)
    report = recovering.recover(sim)
    violations = _verify_recovered(recovering, sim)
    if not crashed:
        violations.append(f"[{point.label}] crash: injected CrashError never fired")
    return CrashOutcome(
        cp_index=model.committed.cp_index + 1,
        point=point,
        in_write_window=in_window,
        post_commit=post_commit,
        crashed=crashed,
        torn_pages=tuple(report.torn_pages),
        restored=len(report.restored),
        retries=report.mount.total_retries,
        recovery_us=report.modeled_recovery_us,
        violations=tuple(violations),
    )


def sweep_crash_points(
    state,
    run_step: Callable[[object], object],
    model: PersistenceModel,
    *,
    sim_of: Callable[[object], WaflSim] = lambda s: s,
) -> list[CrashOutcome]:
    """Explore every span edge of one step against ``model.committed``.

    ``state`` is the pristine pre-step driver (a :class:`WaflSim`, or
    any drill subject); it is deep-copied per trial and **never
    mutated** — the caller runs the real step afterwards.  ``run_step``
    executes the step on a copy; ``sim_of`` extracts the
    :class:`WaflSim` to recover and audit.
    """
    probe = copy.deepcopy(state)
    edges = record_crash_points(lambda: run_step(probe))
    return [
        crash_at_edge(state, run_step, model, edges, point, sim_of) for point in edges
    ]
