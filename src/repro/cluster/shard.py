"""One fleet shard: an aggregate-scale simulator driven in epochs.

A :class:`ShardRuntime` wraps a small :class:`~repro.fs.filesystem
.WaflSim` (two SSD RAID groups by default) and drives its tenant
FlexVols with the vectorized multi-tenant traffic engine, one
*scheduling epoch* at a time.  Epoch boundaries are the cluster's
quiesce points: every epoch builds a fresh :class:`~repro.traffic
.engine.TrafficEngine` over the persistent simulator, so volumes can
join (placement), leave (migration), or carry replayed operations in
between — while the CP/allocator substrate ages continuously.

Determinism is the load-bearing property.  A shard's whole history is
a pure function of ``(ShardSpec, placements, epochs)``:

* the testbed build, fill, and calibration derive from the spec seed;
* each tenant's arrival/mix streams derive from
  ``derive_seed(spec.seed, f"{volume}/e{epoch}/...")`` — independent
  of co-tenants, so placing another volume on the shard never perturbs
  an existing tenant's stream;
* admitted-but-unridden operations at an epoch boundary are counted
  into ``carryover`` and re-injected (as already-admitted riders) into
  the next epoch's first CP — on whatever shard the tenant lives by
  then, which is what lets migration drain and replay them exactly.

:func:`advance_shard` is the module-level, picklable unit of fleet
evaluation: advance the shard that *lives in this process* to epoch
``k``, building it on first touch.  No epoch reads what a ``stats()``/
``payload()`` snapshot writes, so a shard advanced round by round and
one rebuilt and replayed from 0 yield byte-identical payloads.
"""

from __future__ import annotations

import hashlib
import json

from ..analysis import arm_global, disarm_global
from ..common.config import AggregateSpec, VolumeDecl
from ..fs.cp import CPEngine
from ..fs.filesystem import WaflSim
from ..fs.flexvol import FlexVol
from ..fs.tiers import media_role
from ..traffic.arrivals import OnOffArrivals, PoissonArrivals
from ..traffic.engine import TenantSpec, TrafficEngine, TrafficResult
from ..traffic.scenarios import CalibratedService, calibrate_capacity
from ..workloads.aging import (
    fill_volumes,
    reset_measurement_state,
    set_bitmap_checks,
)
from ..workloads.mixes import UniformOverwriteMix, ZipfOverwriteMix
from .stats import ShardSpec, ShardStats, derive_seed
from .volumes import VolumeRequest

__all__ = [
    "TENANT_AA_BLOCKS",
    "EPOCH_CPS",
    "ShardRuntime",
    "digest_of",
    "advance_shard",
]

#: RAID-agnostic AA size for cluster FlexVols.  The library default is
#: one whole bitmap block (32768 blocks) — bigger than an entire small
#: tenant volume — so cluster volumes use page-scale AAs instead.
TENANT_AA_BLOCKS = 4096

#: Ops per CP the per-epoch engines target (smaller than the figure
#: benches: cluster shards are deliberately miniature).
_TARGET_OPS_PER_CP = 1024

#: Traffic CPs driven per scheduling epoch.
EPOCH_CPS = 6


def digest_of(payload: dict) -> str:
    """Canonical digest of a deterministic JSON payload."""
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class ShardRuntime:
    """One live shard: simulator + calibration + tenant registry."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        agg = AggregateSpec(
            tiers=(spec.tier,),
            # The calibration volume: filled at build so the shard has
            # a working set to measure against; never a scheduling
            # target.
            volumes=(
                VolumeDecl(
                    "_sys0",
                    logical_blocks=spec.tier.physical_blocks // 4,
                    blocks_per_aa=TENANT_AA_BLOCKS,
                ),
            ),
        )
        self.sim = WaflSim.build(agg, seed=spec.seed)
        fill_volumes(self.sim, ops_per_cp=8192, seed=derive_seed(spec.seed, "fill"))
        self.calibration: CalibratedService = calibrate_capacity(
            self.sim,
            n_cps=4,
            ops_per_cp=_TARGET_OPS_PER_CP,
            seed=derive_seed(spec.seed, "calibrate"),
        )
        set_bitmap_checks(self.sim, False)
        #: volume name -> the request that placed it here.
        self.tenants: dict[str, VolumeRequest] = {}
        #: volume name -> admitted ops awaiting replay in the next epoch
        #: (epoch-boundary leftovers and migrated-in drains).
        self.carryover: dict[str, int] = {}
        self.epochs_run = 0
        self.results: list[TrafficResult | None] = []
        self.alive = True

    # ------------------------------------------------------------------
    # Volume lifecycle
    # ------------------------------------------------------------------
    def add_volume(self, request: VolumeRequest) -> FlexVol:
        """Create the tenant's FlexVol live in the running simulator.

        The simulator refuses a taken name or a volume the aggregate
        cannot hold (:meth:`WaflSim.add_volume`); it is eligible for the
        next epoch's consistency points immediately.
        """
        vol = self.sim.add_volume(
            VolumeDecl(request.name, request.logical_blocks, blocks_per_aa=TENANT_AA_BLOCKS),
            seed=derive_seed(self.spec.seed, f"vol/{request.name}"),
        )
        vol.metafile.bitmap.check = False
        self.tenants[request.name] = request
        return vol

    def remove_volume(self, name: str) -> VolumeRequest:
        """Drop a tenant (after migration freed its blocks)."""
        request = self.tenants.pop(name)
        self.sim.remove_volume(name)
        self.carryover.pop(name, None)
        return request

    # ------------------------------------------------------------------
    # Epoch traffic
    # ------------------------------------------------------------------
    def _tenant_specs(self, epoch: int) -> list[TenantSpec]:
        cap = self.calibration.capacity_ops
        specs: list[TenantSpec] = []
        for name in sorted(self.tenants):
            req = self.tenants[name]
            offered = req.offered_fraction * cap
            arr_seed = derive_seed(self.spec.seed, f"{name}/e{epoch}/arrivals")
            mix_seed = derive_seed(self.spec.seed, f"{name}/e{epoch}/mix")
            if req.profile == "onoff":
                arrivals = OnOffArrivals(
                    offered,
                    mean_on_us=300_000.0,
                    mean_off_us=300_000.0,
                    seed=arr_seed,
                )
            elif req.profile == "victim":
                # Short hard bursts at the ON rate (~8% duty cycle):
                # the burst outruns the SFQ fair share only when the
                # shard also hosts a backlogged aggressor.
                arrivals = OnOffArrivals(
                    offered,
                    mean_on_us=100_000.0,
                    mean_off_us=1_100_000.0,
                    seed=arr_seed,
                )
            else:
                arrivals = PoissonArrivals(offered, seed=arr_seed)
            if req.profile == "victim":
                mix = ZipfOverwriteMix(req.logical_blocks, seed=mix_seed)
            else:
                mix = UniformOverwriteMix(req.logical_blocks, seed=mix_seed)
            specs.append(
                TenantSpec(
                    name=name,
                    volume=name,
                    arrivals=arrivals,
                    mix=mix,
                    queue_depth=req.queue_depth,
                )
            )
        return specs

    def run_epoch(self, n_cps: int = EPOCH_CPS) -> TrafficResult | None:
        """Drive one scheduling epoch of traffic (None if no tenants)."""
        if not self.tenants:
            self.epochs_run += 1
            self.results.append(None)
            return None
        reset_measurement_state(self.sim)
        engine = TrafficEngine(
            self.sim,
            self._tenant_specs(self.epochs_run),
            target_ops_per_cp=_TARGET_OPS_PER_CP,
        )
        # Re-inject carried operations as already-admitted riders of the
        # first CP window (arrival/admit at the epoch origin): replayed
        # work is served before the epoch's own arrivals, and its wait
        # shows up in the tenant's latency tail — migration is not free.
        engine.replay({
            name: self.carryover.pop(name)
            for name in self.tenants if name in self.carryover
        })
        engine.run(n_cps)
        result = engine.summary()
        # Admitted ops whose CP window never came carry into the next
        # epoch (possibly on another shard, if the tenant migrates).
        for name, left in engine.unridden().items():
            if left:
                self.carryover[name] = self.carryover.get(name, 0) + left
        self.epochs_run += 1
        self.results.append(result)
        return result

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> ShardStats:
        """The scheduler-visible snapshot of this shard right now."""
        store = self.sim.store
        fracs: list[float] = []
        for g in store.groups:
            score = g.cache.best_available_score() if g.cache is not None else None
            fracs.append((score or 0) / g.topology.aa_blocks)
        last = next((r for r in reversed(self.results) if r is not None), None)
        worst = (
            max(t.p99_ms for t in last.tenants.values()) if last is not None else 0.0
        )
        free = int(store.free_count)
        return ShardStats(
            shard_id=self.spec.shard_id,
            total_blocks=int(store.nblocks),
            free_blocks=free,
            projected_free_blocks=free,
            committed_fraction=sum(
                r.offered_fraction for r in self.tenants.values()
            ),
            n_volumes=len(self.tenants),
            media=tuple(g.media.value for g in store.groups),
            tiers=tuple(
                sorted({media_role(g.media.value).value for g in store.groups})
            ),
            ndata=self.spec.tier.ndata,
            capacity_ops=self.calibration.capacity_ops,
            aa_free_fraction=sum(fracs) / len(fracs) if fracs else 0.0,
            worst_p99_ms=worst,
            alive=self.alive,
        )

    def payload(self) -> dict:
        """Everything deterministic about this shard's history (the
        unit of the cluster digest; no wall clocks, no host state)."""
        cal = self.calibration
        return {
            "shard": self.spec.shard_id,
            "seed": self.spec.seed,
            "epochs": [
                r.as_dict() if r is not None else None for r in self.results
            ],
            "free_blocks": int(self.sim.store.free_count),
            "used_by_volume": {
                name: int(v.used_blocks)
                for name, v in sorted(self.sim.vols.items())
            },
            "carryover": dict(sorted(self.carryover.items())),
            "calibration": {
                "cpu_us_per_op": cal.cpu_us_per_op,
                "device_us_per_op": cal.device_us_per_op,
                "capacity_ops": cal.capacity_ops,
            },
            "stats": self.stats().as_dict(),
        }


#: The shards resident in this process when it is a fleet's pool worker (it
#: serves one fleet and exits with it).  The caller's process keeps in-process
#: residents in the fleet itself, so a forked worker finds this empty.
_RESIDENT: dict[int, ShardRuntime] = {}


def advance_shard(args: tuple, residents: dict = _RESIDENT) -> tuple[int, dict]:
    """Picklable pool entry point: advance one resident shard (built
    from its spec on first touch) to ``epochs`` epochs and return its
    payload.

    ``args`` is ``(spec, placements, epochs, epoch_cps, audit)`` where
    ``placements`` is a tuple of ``(VolumeRequest, placed_at_epoch)``; a
    volume joins at the start of its ``placed_at`` epoch, so between
    calls a history may only grow at or past ``epochs_run``.
    """
    spec, placements, epochs, epoch_cps, audit = args
    # An in-process caller's own arming (and its settings) stays as is.
    arm = audit and CPEngine.default_auditor_factory is None
    if arm:
        arm_global()
    try:
        rt = residents.get(spec.shard_id)
        if rt is None:
            rt = residents[spec.shard_id] = ShardRuntime(spec)
        for epoch in range(rt.epochs_run, epochs):
            for request, placed_at in placements:
                if placed_at == epoch:
                    rt.add_volume(request)
            rt.run_epoch(epoch_cps)
        payload = rt.payload()
        payload["digest"] = digest_of(payload)
    finally:
        if arm:
            disarm_global()
    return spec.shard_id, payload
