"""The consistency point (CP) engine.

"WAFL collects the results of thousands of ... modifying operations and
efficiently flushes the changes to persistent storage ... as one single
transaction known as a consistency point" (paper section 2.1).  The
engine drives one CP at a time:

1. Relocations first (segment cleaning, tier migration): each named
   virtual VBN gets a fresh physical home on the named tier and its old
   one is logged as a delayed free; the virtual VBN stays, so every
   snapshot follows.
2. For every volume's batch of dirtied logical blocks: allocate virtual
   VBNs (volume allocator), allocate physical VBNs (the aggregate's
   placement: the volume's pinned tier, or the tier policy), install
   the new mappings, and log the superseded virtual/physical blocks as
   delayed frees.
3. At the CP boundary: price the CP's device writes, apply delayed
   frees, flush batched AA-score deltas into the AA caches, and drain
   metafile dirty-block counts — producing one
   :class:`~repro.sim.stats.CPStats` record.
4. The commit: the ``cp`` span closes and the CP counter moves (the
   superblock switch).  Post-commit, an attached persistence model
   adopts the new image and SSDs get TRIM for the CP's applied frees —
   never before, so a crash recovers with every freed block intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..common.arrayops import sorted_unique
from ..common.errors import AllocationError, OutOfSpaceError, TieringError
from ..core.space import AllocSpace
from ..sim.cpu import CpuModel
from ..sim.stats import CPStats, MetricsLog
from .aggregate import Aggregate
from .flexvol import FlexVol

__all__ = ["CPBatch", "CPEngine"]


@dataclass
class CPBatch:
    """One CP's worth of client activity, produced by a workload."""

    #: Per-volume logical block ids dirtied during the interval
    #: (duplicates allowed; overwrites of the same block coalesce).
    writes: dict[str, np.ndarray] = field(default_factory=dict)
    #: Client operations represented by this batch (an 8 KiB op dirties
    #: two 4 KiB blocks, so ops != blocks in general).
    ops: int = 0
    #: Random client read operations during the interval.
    reads: int = 0
    #: Per-volume logical block ids deleted (unmapped without rewrite).
    deletes: dict[str, np.ndarray] = field(default_factory=dict)
    #: Client operations by traffic source (tenant name); empty for
    #: single-source workloads.  Copied verbatim into the CP's
    #: :class:`~repro.sim.stats.CPStats` so multi-tenant schedulers can
    #: charge CP service time back to the tenants that rode in it.
    ops_by_source: dict[str, int] = field(default_factory=dict)
    #: Per-volume virtual VBNs moved to fresh physical homes before
    #: ``writes`` (so a write of one in the same CP supersedes the copy).
    relocate: dict[str, np.ndarray] = field(default_factory=dict)
    #: Tier label the relocated blocks land on; a batch that relocates
    #: names one (None is refused, like an unknown label).
    relocate_to: str | None = None


class CPEngine:
    """Runs consistency points against one aggregate and its volumes."""

    #: When set (by :func:`repro.analysis.auditor.arm_global`), every
    #: newly constructed engine calls it to obtain a CP-time auditor.
    #: Kept as a plain class attribute so this module never imports
    #: ``repro.analysis`` (which sits above ``fs`` in the package DAG).
    default_auditor_factory = None

    def __init__(
        self,
        store: Aggregate,
        vols: dict[str, FlexVol],
        *,
        metrics: MetricsLog | None = None,
        auditor=None,
    ) -> None:
        self.store = store
        self.vols = vols
        self.cpu_model = CpuModel()
        self.metrics = metrics if metrics is not None else MetricsLog()
        self._cp_index = 0
        #: CPU spent on AA-cache maintenance alone (0.002%-claim metric).
        self.cache_maintenance_us = 0.0
        #: Optional CP-time auditor with before_cp(engine) /
        #: after_cp(engine, stats) hooks (duck-typed; see
        #: :class:`repro.analysis.auditor.InvariantAuditor`).
        factory = type(self).default_auditor_factory
        self.auditor = auditor if auditor is not None else (
            factory() if factory is not None else None
        )
        #: Committed image, ``commit()``-ed after every CP (duck-typed:
        #: a :class:`repro.crash.PersistenceModel` attaches itself).
        self.persistence = None

    # ------------------------------------------------------------------
    @property
    def cp_index(self) -> int:
        """Index the *next* consistency point will run as (== CPs
        committed so far).  The crash-consistency subsystem versions
        its committed metadata images by this counter."""
        return self._cp_index

    def spaces(self) -> list[AllocSpace]:
        """Every allocation space the engine drives: the store's
        physical instances first, then the volumes."""
        return [
            *(fs for _, fs, _ in self.store.physical_instances()),
            *self.vols.values(),
        ]

    def _relocations(self, batch: CPBatch) -> list[tuple[FlexVol, np.ndarray, np.ndarray]]:
        """``(volume, virtual VBNs, their physical homes)`` per volume
        of ``batch.relocate``, refused (typed) before anything moves."""
        if not batch.relocate:
            return []
        to = batch.relocate_to
        if to not in self.store.labels:
            raise TieringError(f"relocation to tier {to!r}: the aggregate's tiers are "
                               f"{self.store.labels}")
        moves = []
        for name, virtual in batch.relocate.items():
            vol = self.vols.get(name)
            if vol is None:
                raise AllocationError(f"relocation in unknown volume {name!r}")
            virtual = sorted_unique(np.asarray(virtual, dtype=np.int64))
            inside = virtual[(virtual >= 0) & (virtual < vol.nblocks)]
            old_p = vol.physical_of(inside)
            if inside.size < virtual.size or (old_p < 0).any():
                raise AllocationError(f"FlexVol {name} cannot relocate a virtual VBN it does not map")
            moves.append((vol, inside, old_p))
        n = sum(int(v.size) for _, v, _ in moves)
        room = self.store.tier_usage()[to]["free"]
        if n > room:
            raise OutOfSpaceError(f"relocation of {n} blocks: {room} free on {to}")
        return moves

    def run_cp(self, batch: CPBatch) -> CPStats:
        """Execute one consistency point and record its statistics."""
        moves = self._relocations(batch)
        obs.set_cp(self._cp_index)
        # The sentinel is the FIRST record appended for this CP: the
        # ring evicts FIFO, so its presence guarantees the CP's records
        # are complete (see repro.obs.report).
        obs.count("cp.begin")
        cp_span = obs.span("cp", cp=self._cp_index, ops=batch.ops)
        cp_span.__enter__()
        if self.auditor is not None:
            self.auditor.before_cp(self)
        for vol, virtual, old_p in moves:
            n = int(virtual.size)
            with obs.span("cp.relocate", vol=vol.name, blocks=n):
                vol.remap(virtual, self.store.allocate_in([batch.relocate_to], n))
                self.store.log_free(old_p)

        virtual_blocks = 0
        tier_policy = self.store.tier_policy
        for name, ids in batch.writes.items():
            vol = self.vols[name]
            ids = sorted_unique(np.asarray(ids, dtype=np.int64))
            if ids.size == 0:
                continue
            with obs.span("cp.allocate", vol=name, blocks=int(ids.size)):
                new_v, old_v, old_p = vol.stage_writes(ids)
                if tier_policy is None:
                    new_p = self.store.place(name, int(ids.size))
                else:
                    # The tier policy replaces the per-volume pinning
                    # (Flash Pool: overwritten blocks to the SSD tier,
                    # first writes to the capacity tier).
                    # ``stage_writes`` leaves ``l2v`` to ``commit_writes``.
                    was_mapped = vol.l2v[ids] >= 0
                    new_p = tier_policy.place(self.store, name, ids, was_mapped)
                vol.commit_writes(ids, new_v, new_p, old_v)
                self.store.log_free(old_p)
            obs.count("cp.virtual_blocks", int(ids.size), vol=name)
            virtual_blocks += int(ids.size)

        for name, ids in batch.deletes.items():
            vol = self.vols[name]
            ids = sorted_unique(np.asarray(ids, dtype=np.int64))
            if ids.size == 0:
                continue
            old_p = vol.stage_deletes(ids)
            self.store.log_free(old_p)

        if batch.reads:
            self.store.charge_reads(batch.reads)

        # ---- CP boundary -------------------------------------------------
        with obs.span("cp.boundary"):
            store_report = self.store.cp_boundary()
            vol_reports = [vol.cp_boundary() for vol in self.vols.values()]
        if obs.active():
            self._trace_boundary(store_report, zip(self.vols.keys(), vol_reports))

        metafile_blocks = store_report.metafile_blocks + sum(
            r.metafile_blocks for r in vol_reports
        )
        cache_ops = store_report.cache_ops + sum(r.cache_ops for r in vol_reports)
        aa_switches = store_report.aa_switches + sum(r.aa_switches for r in vol_reports)
        spanned = store_report.spanned_blocks + sum(r.spanned_blocks for r in vol_reports)

        stats = CPStats(
            cp_index=self._cp_index,
            ops=batch.ops,
            physical_blocks=store_report.blocks_written,
            virtual_blocks=virtual_blocks,
            blocks_freed=store_report.blocks_freed
            + sum(r.blocks_freed for r in vol_reports),
            metafile_blocks_dirtied=metafile_blocks,
            full_stripes=store_report.full_stripes,
            partial_stripes=store_report.partial_stripes,
            tetrises=store_report.tetrises,
            write_chains=store_report.chains,
            parity_reads=store_report.parity_reads,
            reconstruction_reads=store_report.reconstruction_reads,
            degraded_stripes=store_report.degraded_stripes,
            device_busy_us=store_report.device_busy_us,
            device_total_us=store_report.device_total_us,
            cache_ops=cache_ops,
            aa_switches=aa_switches,
            spanned_blocks=spanned,
            ops_by_source=dict(batch.ops_by_source),
            blocks_by_tier={
                t: r.blocks_written for t, r in store_report.by_tier.items()
            },
            freed_by_tier={
                t: r.blocks_freed for t, r in store_report.by_tier.items()
            },
        )
        stats.cpu_us = self.cpu_model.cp_cpu_us(
            ops=batch.ops,
            blocks=stats.physical_blocks + stats.virtual_blocks,
            metafile_blocks=metafile_blocks,
            aa_switches=aa_switches,
            cache_ops=cache_ops,
            spanned_blocks=spanned,
        )
        self.cache_maintenance_us += self.cpu_model.cache_maintenance_us(cache_ops)
        obs.advance_us(stats.cpu_us)
        cp_span.__exit__(None, None, None)
        self.metrics.add(stats)
        self._cp_index += 1
        # ---- post-commit: the image is durable, freed blocks may go ----
        if self.persistence is not None:
            self.persistence.commit()
        for group, report in zip(self.store.groups, store_report.groups):
            group.trim(report.freed)
        if self.auditor is not None:
            self.auditor.after_cp(self, stats)
        return stats

    @staticmethod
    def _trace_boundary(store_report, vol_reports) -> None:
        """Emit the reconciled per-CP counters, attributed by source.

        These intentionally re-count what :class:`CPStats` sums from
        the same reports; the auditor cross-checks the two so a
        drifting instrumentation site fails the audit.
        """
        obs.count("cp.physical_blocks", store_report.blocks_written, where="store")
        obs.count("cp.blocks_freed", store_report.blocks_freed, where="store")
        obs.count("cp.metafile_blocks", store_report.metafile_blocks, where="store")
        obs.count("cp.cache_ops", store_report.cache_ops, where="store")
        obs.count("cp.aa_switches", store_report.aa_switches, where="store")
        obs.count("cp.spanned_blocks", store_report.spanned_blocks, where="store")
        for label, tr in store_report.by_tier.items():
            # Distinct metric names so aggregate-wide sums over the
            # cp.* counters above never double-count the tier slices.
            where = f"tier:{label}"
            obs.count("cp.tier_blocks", tr.blocks_written, where=where)
            obs.count("cp.tier_freed", tr.blocks_freed, where=where)
            obs.count("cp.tier_device_busy_us", int(tr.device_busy_us), where=where)
        for name, r in vol_reports:
            where = f"vol:{name}"
            obs.count("cp.blocks_freed", r.blocks_freed, where=where)
            obs.count("cp.metafile_blocks", r.metafile_blocks, where=where)
            obs.count("cp.cache_ops", r.cache_ops, where=where)
            obs.count("cp.aa_switches", r.aa_switches, where=where)
            obs.count("cp.spanned_blocks", r.spanned_blocks, where=where)
