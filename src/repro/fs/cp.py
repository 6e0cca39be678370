"""The consistency point (CP) engine.

"WAFL collects the results of thousands of ... modifying operations and
efficiently flushes the changes to persistent storage ... as one single
transaction known as a consistency point" (paper section 2.1).  The
engine drives one CP at a time:

0. Admission: a batch the CP cannot carry out whole is refused, typed,
   before anything moves.
1. Relocations first (segment cleaning, tier migration): each named
   virtual VBN gets a fresh physical home on the named tier and its old
   one is logged as a delayed free; the virtual VBN stays, so every
   snapshot follows.
2. For every volume's batch of dirtied logical blocks: allocate virtual
   VBNs (volume allocator), allocate physical VBNs (the aggregate's
   placement: the volume's pinned tier, or the tier policy), install
   the new mappings, and log the superseded virtual/physical blocks as
   delayed frees.
3. At the CP boundary the store gets the physical VBNs placed in steps
   1-2 and the batch's client reads — held by this call alone, so a CP
   that crashes leaves nothing for the next one to price — and prices
   them on its devices, applies delayed frees, flushes batched AA-score
   deltas into the AA caches, and drains metafile dirty-block counts;
   the reports fold into one :class:`~repro.sim.stats.CPStats` record.
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
from .aggregate import Aggregate, merge_reports
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

    def _admit(self, batch: CPBatch) -> tuple[list, list, list]:
        """The batch's relocations ``(volume, virtual VBNs, their
        physical homes)``, writes and deletes ``(volume, logical ids)``,
        ids deduplicated; refused whole, typed, before anything moves."""
        moves = []
        if batch.relocate:
            to = batch.relocate_to
            if to not in self.store.labels:
                raise TieringError(f"relocation to tier {to!r}: the aggregate's tiers are "
                                   f"{self.store.labels}")
            for vol, virtual in self._ids(batch.relocate, "relocation", virtual=True):
                old_p = vol.physical_of(virtual)
                if (old_p < 0).any():
                    raise AllocationError(f"FlexVol {vol.name} cannot relocate a virtual VBN "
                                          "it does not map")
                moves.append((vol, virtual, old_p))
            n = sum(int(v.size) for _, v, _ in moves)
            room = self.store.tier_usage()[to]["free"]
            if n > room:
                raise OutOfSpaceError(f"relocation of {n} blocks: {room} free on {to}")
        writes = self._ids(batch.writes, "write")
        for vol, ids in writes:
            if ids.size > vol.free_count:
                raise OutOfSpaceError(f"FlexVol {vol.name}: {ids.size} blocks written, "
                                      f"{vol.free_count} virtual VBNs free")
        need = sum(int(ids.size) for _, ids in writes) + sum(int(v.size) for _, v, _ in moves)
        if need > self.store.free_count:
            raise OutOfSpaceError(f"CP needs {need} physical blocks: "
                                  f"{self.store.free_count} free")
        return moves, writes, self._ids(batch.deletes, "delete")

    def _ids(self, per_vol: dict[str, np.ndarray], what: str, *,
             virtual: bool = False) -> list[tuple[FlexVol, np.ndarray]]:
        """``(volume, sorted unique ids)`` per volume named; an unknown
        volume or an id outside the volume's logical (or ``virtual``)
        block space refuses the batch."""
        out = []
        for name, ids in per_vol.items():
            vol = self.vols.get(name)
            if vol is None:
                raise AllocationError(f"{what} in unknown volume {name!r}")
            ids = sorted_unique(np.asarray(ids, dtype=np.int64))
            limit = vol.nblocks if virtual else vol.l2v.size
            if ids.size and (ids[0] < 0 or ids[-1] >= limit):
                raise AllocationError(f"FlexVol {name}: {what} of block(s) outside [0, {limit})")
            out.append((vol, ids))
        return out

    def run_cp(self, batch: CPBatch) -> CPStats:
        """Execute one consistency point and record its statistics."""
        moves, writes, deletes = self._admit(batch)
        obs.set_cp(self._cp_index)
        # The sentinel is the FIRST record appended for this CP: the
        # ring evicts FIFO, so its presence guarantees the CP's records
        # are complete (see repro.obs.report).
        obs.count("cp.begin")
        cp_span = obs.span("cp", cp=self._cp_index, ops=batch.ops)
        cp_span.__enter__()
        if self.auditor is not None:
            self.auditor.before_cp(self)
        # The physical VBNs this CP places, handed to its boundary.
        placed: list[np.ndarray] = []
        for vol, virtual, old_p in moves:
            n = int(virtual.size)
            with obs.span("cp.relocate", vol=vol.name, blocks=n):
                new_p = self.store.allocate_in([batch.relocate_to], n)
                vol.remap(virtual, new_p)
                self.store.log_free(old_p)
            placed.append(new_p)

        virtual_blocks = 0
        tier_policy = self.store.tier_policy
        for vol, ids in writes:
            if ids.size == 0:
                continue
            name = vol.name
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
            placed.append(new_p)
            obs.count("cp.virtual_blocks", int(ids.size), vol=name)
            virtual_blocks += int(ids.size)

        for vol, ids in deletes:
            self.store.log_free(vol.stage_deletes(ids))
        written = np.concatenate(placed) if placed else np.empty(0, dtype=np.int64)

        # ---- CP boundary -------------------------------------------------
        with obs.span("cp.boundary"):
            store_report = self.store.cp_boundary(written, batch.reads)
            vol_reports = [vol.cp_boundary() for vol in self.vols.values()]
        if obs.active():
            self._trace_boundary(store_report, zip(self.vols.keys(), vol_reports))
        total = merge_reports([store_report, *vol_reports])

        stats = CPStats(
            cp_index=self._cp_index,
            ops=batch.ops,
            physical_blocks=total.blocks_written,
            virtual_blocks=virtual_blocks,
            blocks_freed=total.blocks_freed,
            metafile_blocks_dirtied=total.metafile_blocks,
            full_stripes=total.full_stripes,
            partial_stripes=total.partial_stripes,
            tetrises=total.tetrises,
            write_chains=total.chains,
            parity_reads=total.parity_reads,
            reconstruction_reads=total.reconstruction_reads,
            degraded_stripes=total.degraded_stripes,
            device_busy_us=total.device_busy_us,
            device_total_us=total.device_total_us,
            cache_ops=total.cache_ops,
            aa_switches=total.aa_switches,
            spanned_blocks=total.spanned_blocks,
            ops_by_source=dict(batch.ops_by_source),
            blocks_by_tier={t: r.blocks_written for t, r in store_report.by_tier.items()},
            freed_by_tier={t: r.blocks_freed for t, r in store_report.by_tier.items()},
        )
        stats.cpu_us = self.cpu_model.cp_cpu_us(
            ops=batch.ops,
            blocks=stats.physical_blocks + stats.virtual_blocks,
            metafile_blocks=total.metafile_blocks,
            aa_switches=total.aa_switches,
            cache_ops=total.cache_ops,
            spanned_blocks=total.spanned_blocks,
        )
        self.cache_maintenance_us += self.cpu_model.cache_maintenance_us(total.cache_ops)
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
