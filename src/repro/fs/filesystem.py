"""WaflSim: the whole-system simulator facade.

Ties together an aggregate (RAID groups and object ranges), a set of
FlexVols, the CP engine, and the metrics log, and provides the
builder functions the examples and benchmarks share.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..common.config import AggregateSpec, VolumeDecl
from ..common.errors import AllocationError, GeometryError
from ..common.rng import make_rng
from ..core.space import AllocSpace
from ..sim.stats import CPStats, MetricsLog
from .aggregate import Aggregate, PolicyKind
from .cp import CPBatch, CPEngine
from .flexvol import FlexVol
from .iron import reference_pass

__all__ = ["WaflSim"]


class WaflSim:
    """A running WAFL-like system: aggregate + volumes + CP engine.

    Most users construct one via :meth:`build` from a declarative
    :class:`~repro.common.config.AggregateSpec` and drive it with a
    workload iterator from :mod:`repro.workloads`.
    """

    def __init__(self, store: Aggregate, vols: dict[str, FlexVol]) -> None:
        self.store = store
        self.vols = vols
        self.metrics = MetricsLog()
        self.engine = CPEngine(store, vols, metrics=self.metrics)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        spec: AggregateSpec,
        *,
        seed: int | np.random.Generator | None = None,
    ) -> "WaflSim":
        """Construct a simulator from a declarative aggregate spec: an
        :class:`Aggregate` of one member store per tier (a RAID tier's
        groups or an object range), whatever the number of tiers.

        ``spec.policy`` / ``spec.vol_policy`` select AA caches or
        baselines independently — the four quadrants of Figure 6;
        ``spec.threshold_fraction`` reaches every :class:`RAIDStore`.
        The volumes join through :meth:`add_volume`, in declaration
        order.
        """
        vol_policy = PolicyKind(spec.vol_policy)
        # Physical spaces draw from the shared generator first, in
        # declaration order, then the volumes.
        rng = make_rng(seed)
        store = Aggregate(spec, policy=PolicyKind(spec.policy), seed=rng)
        sim = cls(store, {})
        for decl in spec.volumes:
            sim.add_volume(decl, policy=vol_policy, seed=rng)
        return sim

    # ------------------------------------------------------------------
    # Volume lifecycle
    # ------------------------------------------------------------------
    def add_volume(
        self,
        decl: VolumeDecl,
        *,
        policy: PolicyKind = PolicyKind.CACHE,
        seed: int | np.random.Generator | None = None,
    ) -> FlexVol:
        """Create a FlexVol live; the CP engine shares ``vols``, so it
        takes part in the next consistency point.

        Refused with :class:`GeometryError` before anything is built if
        the name is taken or the volumes would address more logical
        blocks than the aggregate has (thin provisioning cannot exceed
        the physically written working set)."""
        if decl.name in self.vols:
            raise GeometryError(f"volume {decl.name!r} exists")
        logical = self.total_logical_blocks + decl.logical_blocks
        if logical > self.store.nblocks:
            parts = ", ".join(f"{t.label}={t.physical_blocks}" for t in self.store.tiers)
            raise GeometryError(
                f"volumes address {logical} blocks but the aggregate has "
                f"only {self.store.nblocks} (thin provisioning cannot exceed "
                f"the physically written working set); per-tier capacity: {parts}"
            )
        vol = FlexVol(decl, policy=policy, seed=seed)
        self.vols[decl.name] = vol
        return vol

    def remove_volume(self, name: str) -> FlexVol:
        """Drop a volume from the system (its blocks already freed)."""
        if name not in self.vols:
            raise GeometryError(f"no volume {name!r}")
        return self.vols.pop(name)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self, workload: Iterable[CPBatch], n_cps: int) -> list[CPStats]:
        """Run ``n_cps`` consistency points from the workload iterator."""
        out: list[CPStats] = []
        it: Iterator[CPBatch] = iter(workload)
        for _ in range(n_cps):
            try:
                batch = next(it)
            except StopIteration:
                break
            out.append(self.engine.run_cp(batch))
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def utilization(self) -> float:
        """Fraction of physical blocks in use."""
        total = self.store.nblocks
        return (total - self.store.free_count) / total

    @property
    def total_logical_blocks(self) -> int:
        return sum(v.spec.logical_blocks for v in self.vols.values())

    def vol(self, name: str) -> FlexVol:
        return self.vols[name]

    def spaces(self) -> list[AllocSpace]:
        """Every allocation space of the system: the store's physical
        instances first, then the volumes."""
        return self.engine.spaces()

    def set_free_budget(self, metafile_blocks: int | None) -> None:
        """Budget delayed-free application per CP (HBPS-prioritized).

        With a budget, each CP frees at most ``metafile_blocks`` worth
        of logged frees per file-system instance, choosing the metafile
        blocks with the most pending frees first — the paper's
        "delayed-free scores" use of HBPS.  ``None`` restores full
        per-CP application.
        """
        for fs in self.spaces():
            fs.free_budget_blocks = metafile_blocks

    # ------------------------------------------------------------------
    # Snapshots (extension)
    # ------------------------------------------------------------------
    def create_snapshot(self, vol_name: str, snap_name: str) -> int:
        """Snapshot a volume; returns the blocks pinned."""
        return self.vols[vol_name].create_snapshot(snap_name)

    def delete_snapshot(self, vol_name: str, snap_name: str) -> int:
        """Delete a snapshot; the released blocks enter the delayed-free
        logs and are applied at the next CP boundary.  Returns the
        number of physical blocks released."""
        freed_p = self.vols[vol_name].delete_snapshot(snap_name)
        self.store.log_free(freed_p)
        return int(freed_p.size)

    def verify_consistency(self) -> None:
        """Raise :class:`AllocationError` naming the first space where
        Iron's reference pass finds anything but physical blocks no map
        owns (static aging fills leave those; test hook, expensive)."""
        for t in reference_pass(self):
            virtual = isinstance(t.space, FlexVol)
            if found := {k: n for k, n in t.counts.items() if n and (virtual or k != "leaked")}:
                raise AllocationError(f"{t.space.where}: the reference pass found {found}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WaflSim(store_blocks={self.store.nblocks}, vols={len(self.vols)}, "
            f"utilization={self.utilization:.1%})"
        )
