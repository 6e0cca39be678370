"""Per-CP span trees and CPStats reconciliation.

The tracer's counters intentionally double-count what ``CPStats``
already counts: every traced block total must equal the counted one.
:func:`reconcile_current_cp` cross-checks the two for the CP that just
ran and returns human-readable mismatch strings (empty list =
reconciled); the invariant auditor folds these into its violation
report (``trace-vs-stats``) so a drifting instrumentation site fails
the audit, not just the trace.

Only CPs whose ``cp.begin`` sentinel survived ring-buffer eviction
have a complete span tree: the ring evicts FIFO, so the sentinel
(always the first record of a CP) being present guarantees the CP's
records are complete.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .tracer import KIND_COUNTER, KIND_SPAN, SpanRecord, Tracer

__all__ = [
    "RECONCILED_COUNTERS",
    "CP_SENTINEL",
    "span_tree_lines",
    "cp_counter_totals",
    "complete_cps",
    "reconcile_current_cp",
]

#: Sentinel counter emitted as the first record of every traced CP.
CP_SENTINEL = "cp.begin"

#: ``counter name -> CPStats attribute`` pairs that must agree exactly.
RECONCILED_COUNTERS: dict[str, str] = {
    "cp.virtual_blocks": "virtual_blocks",
    "cp.physical_blocks": "physical_blocks",
    "cp.blocks_freed": "blocks_freed",
    "cp.metafile_blocks": "metafile_blocks_dirtied",
    "cp.cache_ops": "cache_ops",
    "cp.aa_switches": "aa_switches",
    "cp.spanned_blocks": "spanned_blocks",
}


def cp_counter_totals(
    records: Iterable[SpanRecord],
) -> dict[int, dict[str, float]]:
    """Per-CP counter sums: ``{cp_index: {counter_name: total}}``."""
    totals: dict[int, dict[str, float]] = {}
    for r in records:
        if r.kind != KIND_COUNTER:
            continue
        per_cp = totals.setdefault(r.cp, {})
        per_cp[r.name] = per_cp.get(r.name, 0.0) + r.value
    return totals


def complete_cps(records: Iterable[SpanRecord]) -> set[int]:
    """CP indices whose ``cp.begin`` sentinel is present (no eviction)."""
    return {
        r.cp
        for r in records
        if r.kind == KIND_COUNTER and r.name == CP_SENTINEL
    }


def span_tree_lines(
    records: Sequence[SpanRecord], *, cp: int | None = None
) -> list[str]:
    """Render span records as an indented tree, one CP per section.

    Spans nest by their recorded ``depth``; counters are folded into
    per-CP totals shown beneath the tree.
    """
    spans = [r for r in records if r.kind == KIND_SPAN]
    if cp is not None:
        spans = [r for r in spans if r.cp == cp]
    totals = cp_counter_totals(records)

    lines: list[str] = []
    current_cp: int | None = None
    for r in sorted(spans, key=lambda r: r.seq):
        if r.cp != current_cp:
            current_cp = r.cp
            lines.append(f"CP {current_cp}:")
        indent = "  " * (r.depth + 1)
        tag_str = ""
        if r.tags:
            tag_str = " " + " ".join(f"{k}={v}" for k, v in r.tags)
        lines.append(f"{indent}{r.name} {r.dur_us:.1f}us{tag_str}")
    # Counter totals per CP, appended after the trees for readability.
    for cp_index in sorted(totals):
        if cp is not None and cp_index != cp:
            continue
        per_cp = totals[cp_index]
        interesting = {
            k: v for k, v in per_cp.items() if k != CP_SENTINEL
        }
        if not interesting:
            continue
        lines.append(f"CP {cp_index} counters:")
        for name in sorted(interesting):
            lines.append(f"  {name} = {interesting[name]:g}")
    return lines


def reconcile_current_cp(tracer: Tracer, stats) -> list[str]:
    """Reconcile the tracer's running totals against one
    :class:`~repro.sim.stats.CPStats` (none when the tracer is on
    another CP).

    O(number of counters): used by the invariant auditor's ``after_cp``
    hook, which runs inside the CP loop and cannot afford a ring walk.
    """
    if tracer.cp != stats.cp_index:
        return []
    problems: list[str] = []
    for counter_name, attr in RECONCILED_COUNTERS.items():
        traced = tracer._cp_totals.get(counter_name, 0.0)
        counted = float(getattr(stats, attr))
        if traced != counted:
            problems.append(
                f"CP {stats.cp_index}: traced {counter_name} = {traced:g} but "
                f"CPStats.{attr} = {counted:g}"
            )
    return problems
