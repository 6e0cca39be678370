"""Whole-system runtime invariant auditor.

Generalizes the per-structure ``check_invariants`` hooks (HBPS, AA
caches, delayed-free log) into one cross-layer audit: after every
consistency point the bitmap popcounts, the aggregate free counters,
the AA summary (score-keeper) totals, and the HBPS bin totals must all
describe the same free space, and the CP's :class:`~repro.sim.stats.
CPStats` record must conserve blocks (allocations, frees, and metafile
dirtying each balance against the per-instance counter deltas).

Which blocks are referenced comes from Iron's one reference pass, whose
scan :func:`audit_sim`'s report carries; physical *leaked* blocks are
Iron's finding only (static aging fills leave them).

Two entry points:

* :func:`audit_sim` — structural audit of a simulator (or CP engine)
  *right now*; returns a structured :class:`AuditReport`.
* :class:`InvariantAuditor` — CP-time auditor the engine invokes around
  every :meth:`~repro.fs.cp.CPEngine.run_cp` when armed (``repro
  audit``, ``pytest --audit``); adds the conservation checks that need
  before/after counter snapshots.

Arming is global and layering-safe: :func:`arm_global` installs a
factory on :class:`~repro.fs.cp.CPEngine` (a plain class attribute, so
``fs`` never imports ``analysis``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .. import obs
from ..common.errors import AuditError, CacheError
from ..core.hbps_cache import RAIDAgnosticAACache
from ..core.heap_cache import RAIDAwareAACache
from ..core.policies import BitmapWalkSource
from ..faults.recovery import instances
from ..fs.cp import CPEngine
from ..fs.iron import IronReport, SpaceTruth, reference_pass
from ..sim.stats import CPStats

__all__ = [
    "Violation",
    "AuditReport",
    "audit_sim",
    "InvariantAuditor",
    "arm_global",
    "disarm_global",
]


@dataclass(frozen=True)
class Violation:
    """One failed invariant: where it was found, which check, and how."""

    where: str
    check: str
    message: str

    def __str__(self) -> str:
        return f"[{self.where}] {self.check}: {self.message}"


@dataclass
class AuditReport:
    """Structured outcome of one audit pass."""

    violations: list[Violation] = field(default_factory=list)
    checks_run: int = 0
    #: The Iron scan of the reference pass the audit read.
    iron: IronReport = field(default_factory=IronReport)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, where: str, check: str, message: str) -> None:
        self.violations.append(Violation(where, check, message))

    def raise_if_failed(self) -> None:
        """Raise :class:`AuditError` carrying every violation."""
        if self.violations:
            lines = "\n".join(f"  {v}" for v in self.violations)
            raise AuditError(
                f"invariant audit failed with {len(self.violations)} "
                f"violation(s) after {self.checks_run} checks:\n{lines}"
            )

    def format(self) -> str:
        if self.ok:
            return f"audit: clean ({self.checks_run} checks)"
        lines = [str(v) for v in self.violations]
        lines.append(
            f"audit: {len(self.violations)} violation(s) in "
            f"{self.checks_run} checks"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Structural (point-in-time) audit
# ----------------------------------------------------------------------
def _hbps_bins_of(scores: np.ndarray, hbps: Any) -> np.ndarray:
    """Vectorized :meth:`HBPS.bin_of` over a score array."""
    scores = np.asarray(scores, dtype=np.int64)
    bins = (hbps.max_score - scores) // hbps.bin_width
    return np.where(scores == 0, hbps.nbins - 1, bins)


def _audit_bitmap(where: str, fs: Any, report: AuditReport) -> None:
    """Bitmap popcount vs the cached allocated count."""
    bitmap = fs.metafile.bitmap
    report.checks_run += 1
    pop = bitmap.popcount()
    if pop != bitmap.allocated_count:
        report.add(
            where, "bitmap-popcount",
            f"popcount {pop} != cached allocated_count {bitmap.allocated_count}",
        )


def _audit_keeper(where: str, fs: Any, t: SpaceTruth, report: AuditReport) -> None:
    """Score-keeper totals vs the bitmap (the AA summary)."""
    keeper = fs.keeper
    bitmap = fs.metafile.bitmap
    if keeper.pending_aa_count:
        # Mid-CP state: applied scores intentionally lag the bitmap.
        return
    report.checks_run += 1
    if (bad := t.diverged[:8]).size:
        report.add(where, "keeper-vs-bitmap", f"score divergence in AAs {bad.tolist()}: "
                   f"scores={keeper.scores[bad].tolist()} bitmap={t.scores[bad].tolist()}")
        return
    report.checks_run += 1
    total = int(keeper.scores.sum())
    if total != bitmap.free_count:
        report.add(
            where, "keeper-total",
            f"sum of AA scores {total} != bitmap free_count {bitmap.free_count}",
        )


def _audit_delayed_frees(where: str, fs: Any, report: AuditReport) -> None:
    """Delayed-free log internal conservation plus bitmap agreement."""
    report.checks_run += 1
    try:
        fs.delayed_frees.check_invariants(bitmap=fs.metafile.bitmap)
    except CacheError as exc:
        report.add(where, "delayed-frees", str(exc))


def _audit_cache(where: str, fs: Any, report: AuditReport) -> None:
    """AA cache structure, totals, and agreement with the keeper."""
    cache = fs.cache
    if cache is None:
        # Legitimate for the baseline policies (random / linear scan)
        # and while degraded — but degraded allocation must actually be
        # running on the bitmap-walk fallback.
        report.checks_run += 1
        if fs.degraded_alloc and not isinstance(fs.source, BitmapWalkSource):
            report.add(
                where, "cache-presence",
                f"degraded allocation without a bitmap-walk source "
                f"({type(fs.source).__name__})",
            )
        return
    report.checks_run += 1
    if fs.degraded_alloc:
        report.add(
            where, "cache-presence",
            "instance is in degraded allocation but still holds an AA cache",
        )
        return
    report.checks_run += 1
    try:
        cache.check_invariants()
    except CacheError as exc:
        report.add(where, "cache-structure", str(exc))
        return
    keeper_clean = fs.keeper.pending_aa_count == 0
    if isinstance(cache, RAIDAgnosticAACache):
        if cache.seeded:
            return  # histogram counts are intentionally stale until rebuild
        hbps = cache.hbps
        report.checks_run += 1
        tracked = hbps.total_count + len(cache.checked_out)
        if tracked != cache.num_aas:
            report.add(
                where, "hbps-total",
                f"HBPS tracks {hbps.total_count} + {len(cache.checked_out)} "
                f"checked out != num_aas {cache.num_aas}",
            )
        if keeper_clean:
            report.checks_run += 1
            scores = np.asarray(fs.keeper.scores, dtype=np.int64)
            out = np.fromiter(cache.checked_out, dtype=np.int64, count=len(cache.checked_out))
            in_cache = np.ones(cache.num_aas, dtype=bool)
            if out.size:
                in_cache[out] = False
            expected = np.bincount(
                _hbps_bins_of(scores[in_cache], hbps), minlength=hbps.nbins
            )
            actual = np.asarray(hbps.counts, dtype=np.int64)
            if not np.array_equal(expected, actual):
                bad = np.flatnonzero(expected != actual)
                report.add(
                    where, "hbps-bins-vs-scores",
                    f"HBPS bin counts diverge from AA scores in bins "
                    f"{bad[:8].tolist()}: hbps={actual[bad[:8]].tolist()} "
                    f"scores={expected[bad[:8]].tolist()}",
                )
    elif isinstance(cache, RAIDAwareAACache) and keeper_clean and not cache.seeded:
        report.checks_run += 1
        cached = cache.scores_view
        known = cached >= 0
        scores = np.asarray(fs.keeper.scores, dtype=np.int64)
        if not np.array_equal(cached[known], scores[known]):
            bad = np.flatnonzero(known & (cached != scores))
            report.add(
                where, "heap-vs-scores",
                f"heap cache scores diverge from keeper in AAs "
                f"{bad[:8].tolist()}: cache={cached[bad[:8]].tolist()} "
                f"keeper={scores[bad[:8]].tolist()}",
            )


def _audit_references(where: str, t: SpaceTruth, report: AuditReport, store_nblocks: int) -> None:
    """What the reference pass found in one space, physical leaks aside."""
    fs, c, virtual = t.space, t.counts, where.startswith("vol:")
    if not virtual:
        found = [
            (c["corrupt"], "corrupt-physical", f"{c['corrupt']} mapped or pending physical VBNs are free"),
            (c["shared"], "shared-physical",
             f"{c['shared']} extra owners: container maps name a physical VBN twice"),
        ]
    else:
        pending, allocated = fs.delayed_frees.pending_count, fs.metafile.bitmap.allocated_count
        found = [
            (c["outside"], "flexvol-maps", f"{c['outside']} v2p entries map outside [0, {store_nblocks})"),
            (c["duplicates"], "flexvol-maps", f"l2v repeats {c['duplicates']} virtual VBNs"),
            (c["corrupt"], "flexvol-maps", f"{c['corrupt']} mapped, pinned or pending virtual VBNs are free"),
            (c["stale"] or c["holes"], "flexvol-maps",
             f"v2p has {c['stale']} stale entries and {c['holes']} referenced holes"),
            (c["refreed"], "flexvol-maps", f"{c['refreed']} pending frees are still mapped or pinned"),
            (t.active + pending != allocated, "flexvol-accounting",
             f"mapped+pinned {t.active} + pending frees {pending} != allocated {allocated}"),
        ]
    # Three checks on a volume (maps, references vs bitmap, accounting),
    # one on a physical space (its references, one owner each).
    report.checks_run += 3 if virtual else 1
    for failed, check, message in found:
        if failed:
            report.add(where, check, message)


def audit_sim(sim: Any) -> AuditReport:
    """Structural audit of every file-system instance in ``sim`` (a
    :class:`~repro.fs.filesystem.WaflSim`, a :class:`~repro.fs.cp.
    CPEngine`, or anything else with ``store``/``vols`` attributes),
    reading one :func:`~repro.fs.iron.reference_pass`; the report
    carries that pass's Iron scan."""
    truths = reference_pass(sim)
    report = AuditReport(iron=IronReport.of(truths))
    by_where = {t.space.where: t for t in truths}
    for where, fs in sorted(instances(sim).items()):
        _audit_bitmap(where, fs, report)
        _audit_keeper(where, fs, by_where[where], report)
        _audit_delayed_frees(where, fs, report)
        _audit_cache(where, fs, report)
        _audit_references(where, by_where[where], report, sim.store.nblocks)
    return report


# ----------------------------------------------------------------------
# CP-time auditor (conservation across one consistency point)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Snapshot:
    """Per-instance counter snapshot taken just before a CP runs."""

    allocated: int
    total_logged: int
    pending: int
    dirtied_total: int


def _snapshot(fs: Any) -> _Snapshot:
    return _Snapshot(
        allocated=fs.metafile.bitmap.allocated_count,
        total_logged=fs.delayed_frees.total_logged,
        pending=fs.delayed_frees.pending_count,
        dirtied_total=fs.metafile.blocks_dirtied_total,
    )


class InvariantAuditor:
    """Audits every consistency point an engine runs.

    ``before_cp`` snapshots each instance's monotonic counters;
    ``after_cp`` re-audits the whole system structurally and checks the
    CP's block-conservation identities against the snapshots:

    * frees applied (per instance) = Δ total_logged − Δ pending, and
      their sum must equal ``stats.blocks_freed``;
    * allocations (Δ allocated + frees applied) summed over physical
      stores must equal ``stats.physical_blocks``, and over volumes
      ``stats.virtual_blocks``;
    * Δ ``blocks_dirtied_total`` summed must equal
      ``stats.metafile_blocks_dirtied``.

    Parameters
    ----------
    raise_on_violation:
        When True (default) a failed audit raises :class:`AuditError`
        from inside ``run_cp``; when False, reports accumulate in
        :attr:`reports` for later inspection.
    """

    def __init__(self, *, raise_on_violation: bool = True) -> None:
        self.raise_on_violation = raise_on_violation
        self._before: dict[str, _Snapshot] = {}
        #: Reports from every audited CP (newest last).
        self.reports: list[AuditReport] = []
        #: CPs audited (metric; also read by the pytest plugin summary).
        self.cps_audited = 0

    # -- engine hooks --------------------------------------------------
    def before_cp(self, engine) -> None:
        self._before = {w: _snapshot(fs) for w, fs in instances(engine).items()}

    def after_cp(self, engine, stats: CPStats) -> AuditReport:
        report = audit_sim(engine)
        self._check_conservation(engine, stats, report)
        report.checks_run += 1
        for message in stats.accounting_violations():
            report.add("stats", "stats-sanity", message)
        if obs.active():
            # Traced block counts must equal the counted ones: the
            # tracer's per-CP counter totals re-sum the same boundary
            # reports CPStats aggregates, so any drift between an
            # instrumentation site and the accounting fails the audit.
            report.checks_run += 1
            for message in obs.report.reconcile_current_cp(
                obs.get_tracer(), stats
            ):
                report.add("trace", "trace-vs-stats", message)
        self.reports.append(report)
        self.cps_audited += 1
        if self.raise_on_violation:
            report.raise_if_failed()
        return report

    # -- conservation identities ---------------------------------------
    def _check_conservation(self, engine, stats: CPStats, report: AuditReport) -> None:
        freed_sum = 0
        store_allocs = 0
        vol_allocs = 0
        dirtied_sum = 0
        for where, fs in instances(engine).items():
            before = self._before.get(where)
            if before is None:
                continue  # instance appeared mid-CP (not a known path)
            after = _snapshot(fs)
            freed = (after.total_logged - before.total_logged) - (
                after.pending - before.pending
            )
            report.checks_run += 1
            if freed < 0:
                report.add(
                    where, "frees-conservation",
                    f"negative frees applied ({freed}): logged delta "
                    f"{after.total_logged - before.total_logged}, pending delta "
                    f"{after.pending - before.pending}",
                )
            allocs = (after.allocated - before.allocated) + freed
            report.checks_run += 1
            if allocs < 0:
                report.add(
                    where, "alloc-conservation",
                    f"negative allocations ({allocs}) inferred over this CP",
                )
            freed_sum += freed
            dirtied_sum += after.dirtied_total - before.dirtied_total
            if where.startswith("vol:"):
                vol_allocs += allocs
            else:
                store_allocs += allocs
        report.checks_run += 3
        if freed_sum != stats.blocks_freed:
            report.add(
                "cp", "frees-vs-stats",
                f"instances applied {freed_sum} frees but CPStats.blocks_freed "
                f"= {stats.blocks_freed}",
            )
        if store_allocs != stats.physical_blocks:
            report.add(
                "cp", "physical-vs-stats",
                f"stores allocated {store_allocs} blocks but "
                f"CPStats.physical_blocks = {stats.physical_blocks}",
            )
        if vol_allocs != stats.virtual_blocks:
            report.add(
                "cp", "virtual-vs-stats",
                f"volumes allocated {vol_allocs} blocks but "
                f"CPStats.virtual_blocks = {stats.virtual_blocks}",
            )
        report.checks_run += 1
        if dirtied_sum != stats.metafile_blocks_dirtied:
            report.add(
                "cp", "dirtied-vs-stats",
                f"metafiles dirtied {dirtied_sum} blocks but "
                f"CPStats.metafile_blocks_dirtied = {stats.metafile_blocks_dirtied}",
            )


# ----------------------------------------------------------------------
# Global arming (audited bench units and pytest ``--audit``)
# ----------------------------------------------------------------------
def arm_global(*, raise_on_violation: bool = True) -> None:
    """Arm auditing for every :class:`CPEngine` constructed from now on."""
    CPEngine.default_auditor_factory = staticmethod(
        lambda: InvariantAuditor(raise_on_violation=raise_on_violation)
    )


def disarm_global() -> None:
    """Stop arming newly constructed engines."""
    CPEngine.default_auditor_factory = None
