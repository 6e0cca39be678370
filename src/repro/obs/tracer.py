"""Structured tracer: nested spans + typed counters, zero-cost when off.

The tracer is a process-global singleton installed with
:func:`install` and removed with :func:`uninstall`.  Instrumentation
sites call the module-level helpers:

    from repro import obs

    with obs.span("cp.allocate", vol=name, blocks=n):
        ...
    obs.count("cp.physical_blocks", written, where="group:0")

When no tracer is installed, :func:`span` returns a shared no-op
context manager and :func:`count` returns immediately — the disabled
cost is one global load and a ``None`` check, measured under 2% of
any bench unit (see ``tests/obs/test_overhead.py``).

Timestamps come from a deterministic simulated clock advanced by the
instrumented code itself (``advance_us``/``sync_us``), never from wall
clocks, so a traced run is byte-identical across reruns with the same
seed.  Records land in a bounded ring buffer; when it fills, the
oldest records are evicted FIFO and ``dropped`` counts them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator


__all__ = [
    "SpanRecord",
    "Span",
    "Tracer",
    "install",
    "install_tracer",
    "uninstall",
    "active",
    "get_tracer",
    "span",
    "count",
    "advance_us",
    "sync_us",
    "set_cp",
]

#: Record kinds stored in the ring buffer.
KIND_SPAN = "span"
KIND_COUNTER = "counter"


@dataclass(frozen=True)
class SpanRecord:
    """One completed span or counter sample in the ring buffer."""

    kind: str
    name: str
    cp: int
    seq: int
    ts_us: float
    dur_us: float
    depth: int
    value: float
    tags: tuple[tuple[str, Any], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "kind": self.kind,
            "name": self.name,
            "cp": self.cp,
            "seq": self.seq,
            "ts_us": self.ts_us,
            "dur_us": self.dur_us,
            "depth": self.depth,
            "value": self.value,
        }
        if self.tags:
            d["tags"] = dict(self.tags)
        return d


class _NullSpan:
    """Shared no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Span:
    """An open span; closes (and records itself) on ``__exit__``."""

    __slots__ = ("_tracer", "name", "seq", "start_us", "depth", "tags")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        seq: int,
        start_us: float,
        depth: int,
        tags: tuple[tuple[str, Any], ...],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.seq = seq
        self.start_us = start_us
        self.depth = depth
        self.tags = tags

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer._close_span(self)


#: Ring-buffer capacity in records (spans + counter samples); the
#: oldest records are evicted once full.
RING_CAPACITY = 65_536


@dataclass
class Tracer:
    """Bounded ring buffer of span/counter records on a sim clock."""

    ring_capacity: int = RING_CAPACITY

    def __post_init__(self) -> None:
        if self.ring_capacity < 1:
            raise ValueError(f"ring_capacity must be >= 1, got {self.ring_capacity}")
        self.clock_us: float = 0.0
        self.dropped: int = 0
        self._seq: int = 0
        self._cp: int = -1
        self._depth: int = 0
        self._ring: deque[SpanRecord] = deque(maxlen=self.ring_capacity)
        # Running per-CP counter totals, reset at each set_cp(); lets
        # the auditor reconcile the *current* CP in O(counters) without
        # walking the ring.
        self._cp_totals: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Clock + CP association
    # ------------------------------------------------------------------
    def set_cp(self, cp_index: int) -> None:
        """Associate subsequent records with CP ``cp_index``."""
        self._cp = cp_index
        self._cp_totals = {}

    @property
    def cp(self) -> int:
        return self._cp

    @property
    def cp_totals(self) -> dict[str, float]:
        """Counter sums observed since the last ``set_cp``."""
        return dict(self._cp_totals)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **tags: Any) -> Span:
        seq = self._seq
        self._seq += 1
        sp = Span(
            self,
            name,
            seq,
            self.clock_us,
            self._depth,
            tuple(sorted(tags.items())),
        )
        self._depth += 1
        return sp

    def _close_span(self, sp: Span) -> None:
        self._depth -= 1
        self._append(
            SpanRecord(
                kind=KIND_SPAN,
                name=sp.name,
                cp=self._cp,
                seq=sp.seq,
                ts_us=sp.start_us,
                dur_us=self.clock_us - sp.start_us,
                depth=sp.depth,
                value=0.0,
                tags=sp.tags,
            )
        )

    def count(self, name: str, value: float = 1, **tags: Any) -> None:
        seq = self._seq
        self._seq += 1
        self._cp_totals[name] = self._cp_totals.get(name, 0.0) + value
        self._append(
            SpanRecord(
                kind=KIND_COUNTER,
                name=name,
                cp=self._cp,
                seq=seq,
                ts_us=self.clock_us,
                dur_us=0.0,
                depth=self._depth,
                value=float(value),
                tags=tuple(sorted(tags.items())),
            )
        )

    def _append(self, rec: SpanRecord) -> None:
        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(rec)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def records(self) -> list[SpanRecord]:
        """Ring contents ordered by record ``seq`` (span-open order)."""
        return sorted(self._ring, key=lambda r: r.seq)

    def __len__(self) -> int:
        return len(self._ring)


# ----------------------------------------------------------------------
# Module-level singleton API (the hot path)
# ----------------------------------------------------------------------
_active: Tracer | None = None


def install(ring_capacity: int = RING_CAPACITY) -> Tracer:
    """Install (and return) a fresh global tracer."""
    global _active
    _active = Tracer(ring_capacity)
    return _active


def install_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install a specific (possibly subclassed) tracer instance.

    Returns the previously active tracer so callers can restore it —
    the crash-point registry swaps a :class:`Tracer` subclass in around
    one CP and puts the old one back afterwards.  Passing ``None``
    uninstalls.
    """
    global _active
    prev = _active
    _active = tracer
    return prev


def uninstall() -> None:
    """Remove the global tracer; instrumentation reverts to no-ops."""
    global _active
    _active = None


def active() -> bool:
    """True when a tracer is installed."""
    return _active is not None


def get_tracer() -> Tracer | None:
    return _active


def span(name: str, **tags: Any) -> Span | _NullSpan:
    """Open a nested span (no-op context manager when disabled)."""
    t = _active
    if t is None:
        return _NULL_SPAN
    return t.span(name, **tags)


def count(name: str, value: float = 1, **tags: Any) -> None:
    """Record a typed counter sample (no-op when disabled)."""
    t = _active
    if t is None:
        return
    t.count(name, value, **tags)


def advance_us(us: float) -> None:
    """Advance the trace clock (no-op when disabled)."""
    t = _active
    if t is not None:
        t.clock_us += us


def sync_us(us: float) -> None:
    """Fast-forward the trace clock to ``us`` (no-op when disabled)."""
    t = _active
    if t is not None and us > t.clock_us:
        t.clock_us = us


def set_cp(cp_index: int) -> None:
    """Tag subsequent records with a CP index (no-op when disabled)."""
    t = _active
    if t is not None:
        t.set_cp(cp_index)


def iter_records() -> Iterator[SpanRecord]:
    """Records of the active tracer (empty when disabled)."""
    t = _active
    if t is None:
        return iter(())
    return iter(t.records())
