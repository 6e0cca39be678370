"""Crash-point registry: every CP span edge is an injectable crash.

The CP engine already instruments itself with ``repro.obs`` spans —
``cp`` around the whole consistency point, ``cp.relocate`` and
``cp.allocate`` per volume, ``cp.boundary`` around the flush (see :meth:`repro.fs.cp.CPEngine.
run_cp`).  Rather than adding crash hooks to the engine, the registry
*is* a tracer: :class:`CrashTracer` subclasses the obs
:class:`~repro.obs.tracer.Tracer` and counts span **edges** (an enter
when a span opens, an exit when it closes).  Installed via
:func:`repro.obs.install_tracer`, it either records every edge of a
dry run (enumerating the crash sites of one CP with zero new
instrumentation) or raises the typed
:class:`~repro.common.errors.CrashError` at a chosen edge — killing
the CP exactly there, since ``run_cp`` holds no handler between its
spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .. import obs
from ..common.errors import CrashError
from ..obs.tracer import Span, Tracer

__all__ = ["CrashPoint", "CrashTracer", "record_crash_points", "BOUNDARY_SPAN"]

#: Span whose enter-edge opens the CP's persistence write window: a
#: crash at or after it lands while the shadow image is being written,
#: so pages may be torn.  Earlier crashes lose only in-memory state.
BOUNDARY_SPAN = "cp.boundary"

EDGE_ENTER = "enter"
EDGE_EXIT = "exit"


@dataclass(frozen=True)
class CrashPoint:
    """One injectable crash site: the k-th span edge of a CP."""

    #: Ordinal of this edge in the CP's span stream (0-based).
    index: int
    #: Span name at the edge ("cp", "cp.allocate", "cp.boundary", ...).
    name: str
    #: "enter" or "exit".
    edge: str
    #: Sorted span tags at the edge (volume name, block count, ...).
    tags: tuple[tuple[str, Any], ...] = ()

    @property
    def label(self) -> str:
        return f"#{self.index} {self.name}:{self.edge}"


class CrashTracer(Tracer):
    """An obs tracer that records — or crashes at — span edges.

    With ``crash_at=None`` (recording mode) it behaves as a normal
    tracer while appending every span edge to :attr:`edges`.  With
    ``crash_at=k`` it raises :class:`CrashError` the instant the k-th
    edge occurs: *before* the span opens for an enter edge (the work
    the span would cover never starts) and *after* it closes for an
    exit edge (the work completed, the CP died immediately after).
    """

    def __init__(self, *, crash_at: int | None = None) -> None:
        super().__init__()
        self.crash_at = crash_at
        self.edges: list[CrashPoint] = []
        #: The crash point that fired, when ``crash_at`` was reached.
        self.crashed: CrashPoint | None = None

    def _edge(self, name: str, edge: str, tags: tuple) -> None:
        point = CrashPoint(index=len(self.edges), name=name, edge=edge, tags=tags)
        self.edges.append(point)
        if self.crash_at is not None and point.index == self.crash_at:
            self.crashed = point
            raise CrashError(f"injected crash at span edge {point.label}")

    def span(self, name: str, **tags: Any) -> Span:
        self._edge(name, EDGE_ENTER, tuple(sorted(tags.items())))
        return super().span(name, **tags)

    def _close_span(self, sp: Span) -> None:
        super()._close_span(sp)
        self._edge(sp.name, EDGE_EXIT, sp.tags)


def record_crash_points(run: Callable[[], Any]) -> list[CrashPoint]:
    """Enumerate every span edge ``run`` emits (a dry run of one CP).

    Installs a recording :class:`CrashTracer` around ``run`` and
    restores whatever tracer was active before, even if ``run`` raises.
    """
    tracer = CrashTracer()
    prev = obs.install_tracer(tracer)
    try:
        run()
    finally:
        obs.install_tracer(prev)
    return tracer.edges


def boundary_enter_index(edges: list[CrashPoint]) -> int | None:
    """Index of the first :data:`BOUNDARY_SPAN` enter edge, if any."""
    for point in edges:
        if point.name == BOUNDARY_SPAN and point.edge == EDGE_ENTER:
            return point.index
    return None
