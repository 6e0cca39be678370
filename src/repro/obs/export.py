"""Trace exporter: Chrome ``trace_event`` format.

The export is a pure function of the record list and serializes with
``sort_keys=True`` and explicit separators, so a traced run with a
fixed seed exports byte-identical output across reruns (the
determinism tests rely on this).

Chrome format reference: the "Trace Event Format" document —
complete events (``"ph": "X"``) carry ``ts``/``dur`` in microseconds,
counter events (``"ph": "C"``) plot ``args`` values over time.  Open
the file at ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from .tracer import KIND_COUNTER, KIND_SPAN, SpanRecord

__all__ = ["to_chrome", "chrome_events"]


def chrome_events(records: Iterable[SpanRecord]) -> list[dict[str, Any]]:
    """Records as Chrome ``traceEvents`` dicts."""
    events: list[dict[str, Any]] = []
    for r in records:
        args: dict[str, Any] = dict(r.tags)
        args["cp"] = r.cp
        if r.kind == KIND_SPAN:
            events.append(
                {
                    "name": r.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": r.ts_us,
                    "dur": r.dur_us,
                    "pid": 0,
                    "tid": 0,
                    "args": args,
                }
            )
        elif r.kind == KIND_COUNTER:
            events.append(
                {
                    "name": r.name,
                    "cat": "repro",
                    "ph": "C",
                    "ts": r.ts_us,
                    "pid": 0,
                    "tid": 0,
                    "args": {r.name: r.value, **args},
                }
            )
    return events


def to_chrome(records: Iterable[SpanRecord]) -> str:
    """Full Chrome trace JSON document (``traceEvents`` wrapper)."""
    doc = {
        "traceEvents": chrome_events(records),
        "displayTimeUnit": "ms",
        "metadata": {"format": "repro-trace/1"},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
