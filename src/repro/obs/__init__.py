"""Structured tracing/observability: spans, counters, exports, audits.

Quick start::

    from repro import obs

    tracer = obs.install()            # enable tracing
    ...  # run a simulation
    print("\n".join(obs.report.span_tree_lines(tracer.records())))
    chrome_json = obs.export.to_chrome(tracer.records())
    obs.uninstall()

Instrumented modules call ``obs.span(...)`` / ``obs.count(...)``
unconditionally; with no tracer installed both are near-free no-ops.
``repro trace <row> <unit>`` is the CLI front end: it traces one unit
of any row of the experiment table with the auditor armed.
"""

from . import export, report
from .tracer import (
    Span,
    SpanRecord,
    Tracer,
    active,
    advance_us,
    count,
    get_tracer,
    install,
    install_tracer,
    iter_records,
    set_cp,
    span,
    sync_us,
    uninstall,
)

__all__ = [
    "Span",
    "SpanRecord",
    "Tracer",
    "active",
    "advance_us",
    "count",
    "export",
    "get_tracer",
    "install",
    "install_tracer",
    "iter_records",
    "report",
    "set_cp",
    "span",
    "sync_us",
    "uninstall",
]
