"""The one drill driver: step a subject, fire what is due, check the end.

A *drill* is ``steps`` steps of a *subject* under a *schedule*
(DESIGN section 13).  A subject is anything with ``step()`` — advance
one unit of traffic, return the :class:`~repro.sim.stats.CPStats` it
completed (one, several or none) — and ``sims()``: :class:`SimFeed`, a
:class:`~repro.traffic.engine.TrafficEngine`, a ``repro.cluster.Fleet``.
A schedule is a tuple of ``(step, event)``; events fire in schedule
order before the step they name (:data:`END`: after the last one).  An
event has ``fire(drill) -> evidence`` and may have ``check(drill, step,
earlier)``, which raises :class:`FaultError` if it cannot fire before
``step`` once the ``earlier`` ``(step, event)`` pairs have; one with
``crashes = True`` makes the driver keep a committed image.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterable

from ..analysis import audit_sim
from ..common.errors import AllocationError, FaultError, OutOfSpaceError
from ..common.rng import make_rng
from ..crash.persistence import PersistenceModel
from ..faults.injector import FaultInjector
from ..faults.recovery import attach_everywhere, degraded_instances
from ..fs.cp import CPBatch
from ..fs.filesystem import WaflSim
from ..fs.mount import TopAAImage
from ..sim.stats import CPStats

__all__ = ["END", "DrillLog", "SimFeed", "Drill", "run_drill"]

#: Schedule step of an event that fires after the last step, before the
#: end-state checks (a final rebalance pass, a closing scrub).
END = -1


@dataclass
class DrillLog:
    """Everything a drill measured; equal across same-seed runs."""

    #: Steps that completed / that failed an allocation (the bar: zero).
    steps: int = 0
    failed_allocations: int = 0
    #: Steps served while some file system allocated by bitmap walk.
    degraded_steps: int = 0
    #: Degraded-RAID cost over the steps' CPs, and the rebuilds' time.
    reconstruction_reads: int = 0
    degraded_stripes: int = 0
    rebuild_us: float = 0.0
    #: ``(step, event, evidence)`` per event fired, in firing order.
    fired: list[tuple[int, object, object]] = field(default_factory=list)
    #: Committed-image digest after each step (crash drills only).
    committed_digests: list[str] = field(default_factory=list)
    #: End state: auditor checks run, and what they and Iron found.
    audit_checks: int = 0
    audit_violations: list[str] = field(default_factory=list)
    iron_findings: list[str] = field(default_factory=list)

    def evidence(self, kind: type) -> list:
        """What every fired event of type ``kind`` returned, in order."""
        return [found for _, event, found in self.fired if isinstance(event, kind)]

    def step_of(self, kind: type) -> int:
        """The step the first ``kind`` event fired before."""
        return next(step for step, event, _ in self.fired if isinstance(event, kind))


class SimFeed:
    """The plain subject: a :class:`WaflSim` fed one batch per step."""

    def __init__(self, sim: WaflSim, batches: Iterable[CPBatch]) -> None:
        self.sim = sim
        self._batches = iter(batches)
        self._staged: CPBatch | None = None

    def sims(self) -> tuple[WaflSim, ...]:
        return (self.sim,)

    def step(self) -> CPStats:
        batch = self._staged if self._staged is not None else next(self._batches)
        self._staged = None
        return self.sim.engine.run_cp(batch)

    def __deepcopy__(self, memo: dict) -> "SimFeed":
        # Workload generators do not copy: a copy (a crash trial) is fed
        # the one batch the original will run next, and nothing after.
        if self._staged is None:
            self._staged = next(self._batches)
        return SimFeed(copy.deepcopy(self.sim, memo), [self._staged])


class Drill:
    """One run's context: what events read and write when they fire."""

    def __init__(self, subject, schedule, steps: int, seed: int) -> None:
        self.subject = subject
        self.steps = steps
        self.log = DrillLog()
        #: The step about to run (:data:`END` once the last one has).
        self.step = 0
        #: One stream for every random choice an event makes (which
        #: bits flip, which edge crashes) and for injected fault rates.
        self.rng = make_rng(seed)
        #: The TopAA image the next mount reads, once an event exported it.
        self.topaa: TopAAImage | None = None
        self._injector: FaultInjector | None = None
        self._followups: list[tuple[int, object]] = []
        self._schedule = sorted(
            schedule, key=lambda entry: steps if entry[0] == END else entry[0]
        )
        self._refuse_unrunnable()
        #: The image crashes recover to; the engine commits every CP.
        self.model = (
            PersistenceModel(self.sim, seed=seed)
            if any(getattr(event, "crashes", False) for _, event in self._schedule)
            else None
        )

    def _refuse_unrunnable(self) -> None:
        if self.steps <= 0:
            raise FaultError(f"a drill needs at least one step, got {self.steps}")
        earlier: list[tuple[int, object]] = []
        for step, event in self._schedule:
            if step != END and not 0 <= step < self.steps:
                raise FaultError(
                    f"{event} is scheduled before step {step} of a "
                    f"{self.steps}-step drill"
                )
            # Checks see END as what it is: the step after the last.
            at = self.steps if step == END else step
            check = getattr(event, "check", None)
            if check is not None:
                check(self, at, earlier)
            earlier.append((at, event))

    @property
    def sim(self) -> WaflSim:
        """The subject's simulator, for events that address one aggregate."""
        sims = self.subject.sims()
        if len(sims) != 1:
            raise FaultError(
                f"a single-aggregate event cannot address a subject of {len(sims)} sims"
            )
        return sims[0]

    def injector(self) -> FaultInjector:
        """The drill's injector, attached to every read path on first use."""
        if self._injector is None:
            self._injector = FaultInjector(self.rng)
            for sim in self.subject.sims():
                attach_everywhere(sim, self._injector)
        return self._injector

    def after(self, steps: int, event) -> None:
        """Fire ``event`` once ``steps`` more steps have run (ahead of
        that step's scheduled events; at :data:`END` if the run is
        shorter)."""
        self._followups.append((self.step + steps, event))

    def _fire_due(self) -> None:
        last = self.step == END
        due = [e for s, e in self._followups if last or s <= self.step]
        self._followups = [(s, e) for s, e in self._followups if not last and s > self.step]
        due += [e for s, e in self._schedule if s == self.step]
        for event in due:
            self.log.fired.append((self.step, event, event.fire(self)))

    def run(self) -> DrillLog:
        log, subject = self.log, self.subject
        for step in range(self.steps):
            self.step = step
            self._fire_due()
            try:
                ran = subject.step()
                log.steps += 1
            except (AllocationError, OutOfSpaceError):
                ran = None
                log.failed_allocations += 1
            for stats in (ran,) if isinstance(ran, CPStats) else ran or ():
                log.reconstruction_reads += stats.reconstruction_reads
                log.degraded_stripes += stats.degraded_stripes
            if self.model is not None:
                log.committed_digests.append(self.model.committed.digest())
            if any(degraded_instances(sim) for sim in subject.sims()):
                log.degraded_steps += 1
        self.step = END
        self._fire_due()
        log.audit_checks, log.audit_violations, log.iron_findings = check_end_state(
            subject.sims()
        )
        return log


def check_end_state(sims) -> tuple[int, list[str], list[str]]:
    """The invariants every drill ends on, over every sim: the
    cross-layer audit and the WAFL Iron scan it carries (one reference
    pass serves both).  Both only read — no rng draw, no armed fault
    consumed, no metafile read charged — so a drill measures the same
    with or without them."""
    checks, violations, findings = 0, [], []
    for sim in sims:
        report = audit_sim(sim)
        checks += report.checks_run
        violations += [str(v) for v in report.violations]
        findings += [str(f) for f in report.iron.findings]
    return checks, violations, findings


def run_drill(subject, schedule, steps: int, *, seed: int = 0) -> DrillLog:
    """Run ``steps`` steps of ``subject`` under ``schedule``.

    The whole schedule is checked against the subject first and refused
    with :class:`FaultError` before anything moves.  ``seed`` feeds
    every random choice the events make and the torn-write model of
    crash recovery; the subject carries its own.
    """
    return Drill(subject, schedule, steps, seed).run()
