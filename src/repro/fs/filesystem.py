"""WaflSim: the whole-system simulator facade.

Ties together a physical store (RAID groups or object store), a set of
FlexVols, the CP engine, and the metrics log, and provides the
builder functions the examples and benchmarks share.
"""

from __future__ import annotations

import importlib
from typing import Iterable, Iterator

import numpy as np

from ..common.config import AggregateSpec, TierSpec
from ..common.constants import RAID_AGNOSTIC_AA_BLOCKS
from ..common.errors import GeometryError
from ..common.rng import make_rng
from ..core.space import AllocSpace
from ..devices.objectstore import ObjectStoreConfig
from ..devices.smr import SMRConfig
from ..devices.ssd import SSDConfig
from ..sim.cpu import CpuModel
from ..sim.stats import CPStats, MetricsLog
from .aggregate import (
    LinearStore,
    MediaType,
    PolicyKind,
    RAIDGroupConfig,
    RAIDStore,
    Store,
)
from .cp import CPBatch, CPEngine
from .flexvol import FlexVol, VolSpec

__all__ = ["WaflSim"]


def _tier_group_configs(tier: TierSpec) -> list[RAIDGroupConfig]:
    """RAID group configs for one declared (non-object) tier."""
    ssd_cfg = None
    if tier.media == "ssd" and (tier.erase_block_blocks or tier.program_us_per_block):
        kwargs: dict = {}
        if tier.erase_block_blocks:
            kwargs["erase_block_blocks"] = tier.erase_block_blocks
        if tier.program_us_per_block:
            kwargs["program_us_per_block"] = tier.program_us_per_block
        ssd_cfg = SSDConfig(**kwargs)
    smr_cfg = None
    if tier.media == "smr" and (tier.zone_blocks or tier.rewrite_penalty_us):
        kwargs = {}
        if tier.zone_blocks:
            kwargs["zone_blocks"] = tier.zone_blocks
        if tier.rewrite_penalty_us:
            kwargs["rewrite_penalty_us"] = tier.rewrite_penalty_us
        smr_cfg = SMRConfig(**kwargs)
    return [
        RAIDGroupConfig(
            ndata=tier.ndata,
            nparity=tier.nparity,
            blocks_per_disk=tier.blocks_per_disk,
            media=MediaType(tier.media),
            mirrored=tier.raid == "mirror",
            stripes_per_aa=tier.stripes_per_aa or None,
            azcs=tier.azcs,
            ssd_config=ssd_cfg,
            smr_config=smr_cfg,
        )
        for _ in range(tier.n_groups)
    ]


def _vol_specs(spec: AggregateSpec) -> list[VolSpec]:
    """Translate the spec's volume declarations into builder VolSpecs."""
    return [
        VolSpec(
            v.name,
            logical_blocks=v.logical_blocks,
            virtual_blocks=v.virtual_blocks or None,
            blocks_per_aa=v.blocks_per_aa or RAID_AGNOSTIC_AA_BLOCKS,
            workload=v.workload,
        )
        for v in spec.volumes
    ]


class WaflSim:
    """A running WAFL-like system: store + volumes + CP engine.

    Most users construct one via :meth:`build` from a declarative
    :class:`~repro.common.config.AggregateSpec` and drive it with a
    workload iterator from :mod:`repro.workloads`.
    """

    def __init__(
        self,
        store: Store,
        vols: dict[str, FlexVol],
        *,
        cpu_model: CpuModel | None = None,
    ) -> None:
        self.store = store
        self.vols = vols
        self.metrics = MetricsLog()
        self.engine = CPEngine(store, vols, cpu_model=cpu_model, metrics=self.metrics)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        spec: AggregateSpec,
        *,
        object_config: ObjectStoreConfig | None = None,
        cpu_model: CpuModel | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> "WaflSim":
        """Construct a simulator from a declarative aggregate spec.

        One entry point for every backing-store shape:

        * one RAID tier — a plain :class:`RAIDStore` (HDD/SSD/SMR
          groups, RAID 4 / RAID-DP / mirrored);
        * one object tier — a :class:`LinearStore`;
        * several tiers — a :class:`repro.tiering.TieredStore`
          composing one member store per tier in a single aggregate
          VBN space, with the per-volume tier chooser attached.

        ``spec.policy`` / ``spec.vol_policy`` select AA caches or
        baselines independently — the four quadrants of Figure 6;
        ``spec.threshold_fraction`` reaches every :class:`RAIDStore`.
        """
        agg_policy = PolicyKind(spec.policy)
        vol_policy = PolicyKind(spec.vol_policy)
        vol_specs = _vol_specs(spec)
        # Physical spaces draw from the shared generator first, in
        # declaration order, then the volumes.
        rng = make_rng(seed)
        by_tier = None
        tier = spec.tiers[0]
        store: Store
        if len(spec.tiers) > 1:
            # repro.tiering sits far above fs in the layer DAG, so the
            # multi-tier path binds to it at call time only.
            store = importlib.import_module("repro.tiering").make_tiered_store(
                spec, policy=agg_policy, object_config=object_config, seed=rng
            )
            by_tier = {t.label: t.physical_blocks for t in spec.tiers}
        elif tier.media == "object":
            store = LinearStore(
                tier.nblocks,
                blocks_per_aa=tier.blocks_per_aa,
                policy=agg_policy,
                object_config=object_config,
                seed=rng,
            )
        else:
            store = RAIDStore(
                _tier_group_configs(tier),
                policy=agg_policy,
                threshold_fraction=spec.threshold_fraction,
                seed=rng,
            )
        vols = {s.name: FlexVol(s, policy=vol_policy, seed=rng) for s in vol_specs}
        cls._check_capacity(store.nblocks, vol_specs, by_tier=by_tier)
        return cls(store, vols, cpu_model=cpu_model)

    @staticmethod
    def _check_capacity(
        phys_blocks: int,
        vol_specs: list[VolSpec],
        by_tier: dict[str, int] | None = None,
    ) -> None:
        logical = sum(s.logical_blocks for s in vol_specs)
        if logical > phys_blocks:
            detail = ""
            if by_tier:
                parts = ", ".join(f"{t}={n}" for t, n in by_tier.items())
                detail = f"; per-tier capacity: {parts}"
            raise GeometryError(
                f"volumes address {logical} blocks but the aggregate has "
                f"only {phys_blocks} (thin provisioning cannot exceed the "
                f"physically written working set){detail}"
            )

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
        """Cross-check every volume's maps and every keeper against the
        bitmaps (test hook; expensive)."""
        for v in self.vols.values():
            v.verify_consistency()
        for fs in self.spaces():
            if fs.delayed_frees.pending_count == 0:
                fs.keeper.verify_against(fs.metafile.bitmap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WaflSim(store_blocks={self.store.nblocks}, vols={len(self.vols)}, "
            f"utilization={self.utilization:.1%})"
        )
