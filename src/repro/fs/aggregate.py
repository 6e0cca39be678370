"""The aggregate: RAID groups and linear (object) ranges in one VBN space.

An ONTAP aggregate is a pool of physical storage hosting FlexVols
(paper section 2.1).  Its physical VBN space is the concatenation of
its tiers' spaces, in declaration order: a RAID tier's groups (each
owns a contiguous global range), or a single linear range when the
backing store is natively redundant.  A Flash Pool is an aggregate
whose tiers hold SSD and HDD groups.

Each RAID group and each linear store is an
:class:`~repro.core.space.AllocSpace` (topology, bitmap metafile,
delayed-free log, score keeper, AA cache, write allocator and their
lifecycle); this module adds geometry, device models with time costs
(:mod:`repro.devices`) and the CP-boundary sequence.  The CP engine
hands the boundary what the CP did — the physical VBNs it placed and
the client reads it served — and each level routes them to its owners
with the bounds it routes frees by (:func:`route_vbns`).  Each owner
prices its reads, then its writes, on its devices, applies its delayed
frees, flushes batched AA-score deltas into the caches and drains
metafile dirty-block counts; :func:`merge_reports` folds the owners'
reports at every level.  The report carries each group's freed VBNs
for the post-commit SSD trims.  No level keeps a CP's writes or reads
past its boundary.

:class:`Aggregate` is the one store every spec builds: one member per
tier — a :class:`RAIDStore` of the tier's groups or a
:class:`LinearStore` — each built at its global VBN base (its spaces'
``offset``), so members allocate, and accept frees, in global VBNs at
every level, and each space subtracts its own base once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Protocol, Sequence

import numpy as np

from .. import obs
from ..common.arrayops import run_starts
from ..common.config import DEVICE_OVERRIDES, AggregateSpec, TierSpec
from ..common.constants import (
    DEFAULT_ERASE_BLOCK_BLOCKS,
    DEFAULT_SMR_ZONE_BLOCKS,
    RAID_AGNOSTIC_AA_BLOCKS,
)
from ..common.errors import (
    BitmapError,
    DegradedError,
    GeometryError,
    MediaError,
    OutOfSpaceError,
    TieringError,
)
from ..common.rng import make_rng
from ..core.aa import LinearAATopology, StripeAATopology
from ..core.allocator import AggregateAllocator
from ..core.policies import PolicyKind
from ..core.sizing import aa_size_for_hdd, aa_size_for_smr, aa_size_for_ssd
from ..core.space import AllocSpace
from ..devices.base import Device, MediaType
from ..devices.hdd import HDD
from ..devices.objectstore import ObjectStore
from ..devices.smr import SMRConfig, SMRDrive
from ..devices.ssd import SSD, SSDConfig
from ..raid.geometry import RAIDGeometry
from ..raid.parity import StripeWriteStats, analyze_raid_writes
from .azcs import azcs_device_blocks, azcs_expand
from .tiers import choose_tier

__all__ = [
    "MediaType",
    "PolicyKind",
    "TierPolicy",
    "resolve_stripes_per_aa",
    "route_vbns",
    "RAIDGroupRuntime",
    "StoreCPReport",
    "GroupCPReport",
    "merge_reports",
    "RAIDStore",
    "LinearStore",
    "Aggregate",
]


class TierPolicy(Protocol):
    """Placement that replaces an :class:`Aggregate`'s per-volume tier
    pinning (``aggregate.tier_policy``).

    The CP engine consults it instead of :meth:`Aggregate.place`:
    :meth:`place` returns one physical VBN per staged block, aligned
    with ``ids``, routed to whatever tier the policy chooses (Flash
    Pool's hot/cold split, :class:`repro.tiering.FlashPoolPolicy`).
    This protocol is structural on purpose — concrete policies live in
    :mod:`repro.tiering`, which sits far above ``fs`` in the layer DAG.
    """

    def place(
        self,
        store: "Aggregate",
        vol_name: str,
        ids: np.ndarray,
        was_mapped: np.ndarray,
    ) -> np.ndarray:
        """Allocate physical VBNs for ``ids`` (``was_mapped[i]`` is True
        for overwrites); raises ``OutOfSpaceError`` on shortfall."""
        ...


def resolve_stripes_per_aa(tier: TierSpec, geometry: RAIDGeometry) -> int:
    """Stripes per AA of a RAID tier's groups: the declared size, else
    the media default (4k stripes for HDD, erase-block multiples for
    SSD, zone multiples for SMR)."""
    if tier.stripes_per_aa:
        return tier.stripes_per_aa
    if tier.media == "hdd":
        return aa_size_for_hdd(geometry).size
    if tier.media == "ssd":
        eb = tier.erase_block_blocks or DEFAULT_ERASE_BLOCK_BLOCKS
        return aa_size_for_ssd(geometry, eb).size
    zone = tier.zone_blocks or DEFAULT_SMR_ZONE_BLOCKS
    return aa_size_for_smr(geometry, zone, azcs=tier.azcs).size


def _make_device(tier: TierSpec, name: str) -> Device:
    """One member device of a RAID tier's group; each override field the
    tier sets (non-zero, and only ever on its own media) replaces the
    device model's default."""
    blocks = tier.blocks_per_disk
    overrides = {f: getattr(tier, f) for f in DEVICE_OVERRIDES if getattr(tier, f)}
    if tier.media == "ssd":
        return SSD(blocks, SSDConfig(**overrides), name)
    if tier.media == "smr":
        cap = azcs_device_blocks(blocks) if tier.azcs else blocks
        return SMRDrive(cap, SMRConfig(**overrides), name)
    return HDD(blocks, name=name)


def route_vbns(vbns: np.ndarray, bounds) -> list[np.ndarray]:
    """Per owner ``i`` of ``[bounds[i], bounds[i + 1])``, the global VBNs
    of ``vbns`` it holds — a CP's frees or its writes: one sort, cut at
    the bounds (a lone owner takes the batch as it is).  A VBN outside
    every owner refuses the batch (BitmapError) before anything is
    logged.  The space that takes a slice subtracts its own base."""
    if vbns.size == 0:
        return [vbns] * (len(bounds) - 1)
    lone = len(bounds) == 2
    sv = vbns if lone else np.sort(vbns)
    lo, hi = (vbns.min(), vbns.max()) if lone else (sv[0], sv[-1])
    if lo < bounds[0] or hi >= bounds[-1]:
        bad = sv[(sv < bounds[0]) | (sv >= bounds[-1])][:8].tolist()
        raise BitmapError(f"VBN(s) {bad} outside the store's VBN space "
                          f"[{bounds[0]}, {bounds[-1]})")
    if lone:
        return [vbns]
    cuts = np.searchsorted(sv, bounds).tolist()
    return [sv[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


@dataclass
class StoreCPReport:
    """One CP-boundary outcome: of a RAID group, a member store, the
    aggregate or a volume.  Every ``int`` field is a counter."""

    #: Bottleneck device busy time (devices operate in parallel).
    device_busy_us: float = 0.0
    #: Sum of device busy times (for utilization accounting).
    device_total_us: float = 0.0
    metafile_blocks: int = 0
    blocks_written: int = 0
    blocks_freed: int = 0
    full_stripes: int = 0
    partial_stripes: int = 0
    tetrises: int = 0
    chains: int = 0
    parity_reads: int = 0
    #: Reads issued to surviving devices to stand in for failed ones
    #: (degraded writes, degraded metafile/client reads).
    reconstruction_reads: int = 0
    #: Stripes written while the group was degraded.
    degraded_stripes: int = 0
    cache_ops: int = 0
    aa_switches: int = 0
    #: VBN span covered by this CP's allocations (bitmap bits examined;
    #: ~blocks / selected-AA density — see CpuModel.us_per_spanned_block).
    spanned_blocks: int = 0
    groups: list["GroupCPReport"] = field(default_factory=list)
    #: Aggregates of several tiers only: this CP's outcome sliced per
    #: tier label (each value is one member's report; empty on one tier).
    by_tier: dict[str, "StoreCPReport"] = field(default_factory=dict)

    def add_space_deltas(self, deltas: tuple[int, int, int, int]) -> None:
        """Fold one space's :meth:`AllocSpace.drain_cp` tuple in."""
        self.metafile_blocks += deltas[0]
        self.cache_ops += deltas[1]
        self.aa_switches += deltas[2]
        self.spanned_blocks += deltas[3]


@dataclass
class GroupCPReport(StoreCPReport):
    """Per-RAID-group slice of one CP (feeds Figure 7)."""

    stripes: int = 0
    blocks_per_disk: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: Local VBNs whose delayed frees this CP applied (trimmed post-commit).
    freed: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


#: Every ``int`` field of a report is a counter that merges by summing.
_COUNTERS = tuple(f.name for f in fields(StoreCPReport) if isinstance(f.default, int))
_counters_of = attrgetter(*_COUNTERS)


def merge_reports(parts: Sequence[StoreCPReport]) -> StoreCPReport:
    """Fold CP reports into one — a RAID member's groups, an aggregate's
    members, the store's and the volumes': every counter sums, the
    bottleneck busy time is the max (groups, tiers and volumes flush in
    parallel) and the total busy time sums."""
    return StoreCPReport(
        device_busy_us=max((r.device_busy_us for r in parts), default=0.0),
        device_total_us=float(sum(r.device_total_us for r in parts)),
        **dict(zip(_COUNTERS, map(sum, zip(*map(_counters_of, parts))))),
    )


class RAIDGroupRuntime(AllocSpace):
    """One live RAID group of a :class:`TierSpec` tier: a stripe-topology
    :class:`AllocSpace` plus its devices, stripe pricing and
    degraded-RAID accounting."""

    def __init__(
        self,
        tier: TierSpec,
        *,
        offset: int,
        policy: PolicyKind = PolicyKind.CACHE,
        seed: int | np.random.Generator | None = None,
        name: str = "rg",
    ) -> None:
        if tier.raid == "none":
            raise GeometryError(f"media {tier.media!r} cannot form RAID groups")
        self.media = MediaType(tier.media)
        self.name = name
        self.geometry = RAIDGeometry(
            tier.ndata, tier.nparity, tier.blocks_per_disk,
            mirrored=tier.raid == "mirror",
        )
        # :class:`Aggregate` rewrites ``where`` to ``group:<global index>``
        # so injector targets match Iron's ``where`` strings.
        super().__init__(
            StripeAATopology(self.geometry, resolve_stripes_per_aa(tier, self.geometry)),
            where=f"group:{name}", policy=policy, seed=seed, offset=offset,
        )
        self.azcs = tier.azcs
        self.data_devices = [_make_device(tier, f"{name}.d{d}") for d in range(tier.ndata)]
        self.parity_devices = [
            _make_device(tier, f"{name}.p{p}") for p in range(tier.nparity)
        ]
        #: Aging-phase fast path: issue every device write (FTL state
        #: must advance exactly as priced CPs would) but skip the
        #: stripe/tetris/chain classification and parity-read charging,
        #: whose only outputs are CPStats fields and device timing stats
        #: that :func:`repro.workloads.aging.reset_measurement_state`
        #: discards.  Only honored for healthy all-SSD groups, where
        #: devices carry no positional state a skipped read could move.
        self.unpriced = False
        # Degraded-read accounting (recovery metrics).
        self.reconstruction_reads = 0
        self.degraded_reads = 0
        self.blocks_reconstructed = 0
        self._pending_recon_us = 0.0
        self._pending_recon_reads = 0

    @property
    def devices(self) -> list[Device]:
        return self.data_devices + self.parity_devices

    # ------------------------------------------------------------------
    # Disk failure and degraded RAID (:mod:`repro.faults`)
    # ------------------------------------------------------------------
    @property
    def failed_disks(self) -> int:
        """Number of failed member devices (data + parity)."""
        return sum(1 for d in self.devices if d.failed)

    @property
    def within_parity_budget(self) -> bool:
        """True while the group can still reconstruct any single block
        (failed members do not exceed the parity count)."""
        return self.failed_disks <= self.geometry.nparity

    @property
    def survivor_count(self) -> int:
        return len(self.devices) - self.failed_disks

    def fail_disk(self, index: int, *, parity: bool = False) -> None:
        """Inject a whole-device failure (data disk ``index``, or a
        parity disk with ``parity=True``)."""
        devs = self.parity_devices if parity else self.data_devices
        if not 0 <= index < len(devs):
            raise GeometryError(f"no {'parity' if parity else 'data'} disk {index}")
        devs[index].fail()

    def replace_disk(self, index: int, *, parity: bool = False) -> float:
        """Replace a failed device and reconstruct its contents from the
        survivors.  Charges one full-disk read on every surviving member
        plus the rebuild write; returns the modeled busy time and counts
        the reconstructed blocks."""
        devs = self.parity_devices if parity else self.data_devices
        if not 0 <= index < len(devs):
            raise GeometryError(f"no {'parity' if parity else 'data'} disk {index}")
        if not devs[index].failed:
            raise DegradedError(
                f"{self.where}: {'parity' if parity else 'data'} disk {index} "
                "has not failed; there is nothing to rebuild"
            )
        if not self.within_parity_budget:
            raise DegradedError(
                f"{self.where}: {self.failed_disks} failed disks exceed "
                f"parity budget {self.geometry.nparity}; cannot rebuild"
            )
        blocks = self.geometry.blocks_per_disk
        busy: list[float] = []
        for dev in self.devices:
            if not dev.failed:
                busy.append(dev.read_blocks(0, blocks))
                self.reconstruction_reads += blocks
        devs[index].revive()
        busy.append(devs[index].write_blocks(np.arange(blocks, dtype=np.int64)))
        self.blocks_reconstructed += blocks
        us = max(busy) if busy else 0.0
        self._pending_recon_us += us
        return us

    def _reconstruct_blocks(self, n: int) -> None:
        """Charge a degraded read of ``n`` blocks: each is rebuilt from
        the surviving members (``survivors - 1`` extra reads per block,
        spread uniformly), or raises when beyond the parity budget."""
        if n <= 0:
            return
        if not self.within_parity_budget:
            raise DegradedError(
                f"{self.where}: cannot reconstruct reads with "
                f"{self.failed_disks} failed disks (parity budget "
                f"{self.geometry.nparity})"
            )
        survivors = [d for d in self.devices if not d.failed]
        extra = n * max(len(survivors) - 1, 0)
        per_dev = extra // max(len(survivors), 1)
        us = 0.0
        for dev in survivors:
            us = max(us, dev.read_blocks(per_dev))
        self.degraded_reads += n
        self.reconstruction_reads += extra
        self.blocks_reconstructed += n
        self._pending_recon_reads += extra
        self._pending_recon_us += us

    def read_random(self, n: float) -> float:
        """Serve ``n`` client random reads spread uniformly over the data
        devices; reads aimed at a failed member are reconstructed from
        the survivors.  Returns the bottleneck device's busy time."""
        if n <= 0:
            return 0.0
        share = int(round(n / max(len(self.data_devices), 1)))
        us = 0.0
        degraded = 0
        for dev in self.data_devices:
            if dev.failed:
                degraded += share
                continue
            us = max(us, dev.read_blocks(share))
        if degraded:
            self._reconstruct_blocks(degraded)
        return us

    def _check_media(self, n: int) -> None:
        """RAID-group fault semantics: reads landing on failed members
        and latent sector errors are reconstructed from parity while
        within the group's budget (charging the reconstruction reads)
        and raise :class:`MediaError` when they cannot be."""
        inj = self.injector
        # Reads landing on failed members are always degraded.
        degraded = 0
        if self.failed_disks:
            degraded = (n * self.failed_disks) // len(self.devices)
        if inj is not None:
            degraded += inj.roll(self.where, "latent-sector-error", n)
            degraded = min(degraded, n)
        if degraded:
            if not self.within_parity_budget or (
                inj is not None and inj.consume(self.where, "unreconstructable")
            ):
                raise MediaError(
                    f"{self.where}: metafile blocks damaged beyond RAID "
                    f"reconstruction"
                )
            self._reconstruct_blocks(degraded)

    # ------------------------------------------------------------------
    # CP boundary pieces
    # ------------------------------------------------------------------
    def price_cp_writes(self, local_vbns: np.ndarray) -> GroupCPReport:
        """Charge devices for one CP's writes to this group and return
        the per-group report (stripe/tetris/chain accounting), with the
        degraded reads charged since the last CP drained into it."""
        report = GroupCPReport(
            device_busy_us=self._pending_recon_us,
            reconstruction_reads=self._pending_recon_reads,
            blocks_per_disk=np.zeros(self.geometry.ndata, dtype=np.int64),
        )
        self._pending_recon_reads, self._pending_recon_us = 0, 0.0
        if (
            self.unpriced
            and self.media is MediaType.SSD
            and not self.failed_disks
            and not self.azcs
            and not self.geometry.mirrored
        ):
            return self._price_cp_writes_unpriced(local_vbns, report)
        with obs.span(
            "rg.price_writes", group=self.where, blocks=int(local_vbns.size)
        ):
            self._price_cp_writes(local_vbns, report)
            obs.advance_us(report.device_busy_us)
        if obs.active():
            obs.count("raid.full_stripes", report.full_stripes, group=self.where)
            obs.count("raid.partial_stripes", report.partial_stripes, group=self.where)
            obs.count("raid.parity_reads", report.parity_reads, group=self.where)
        return report

    def _price_cp_writes_unpriced(self, local_vbns: np.ndarray,
                                  report: GroupCPReport) -> GroupCPReport:
        """Issue one CP's device writes without pricing them.

        The per-device data streams and parity-stripe writes are byte
        for byte the ones :meth:`_price_cp_writes` derives from the full
        ``analyze_raid_writes`` pass, so FTL state (valid maps, open
        units, erase counts) evolves identically; everything skipped —
        classification, parity-read charging, busy-time maxing — only
        feeds statistics the measurement reset clears.
        """
        if local_vbns.size == 0:
            return report
        bpd = self.geometry.blocks_per_disk
        sv = np.sort(local_vbns)
        sb = self.geometry.dbn_of(sv)
        dmin = int(sb.min())
        occupancy = np.bincount(sb - dmin)
        touched = np.flatnonzero(occupancy) + dmin
        bounds = np.searchsorted(sv, np.arange(self.geometry.ndata + 1) * bpd)
        for d, dev in enumerate(self.data_devices):
            dev.write_blocks(sb[bounds[d] : bounds[d + 1]])
        for dev in self.parity_devices:
            dev.write_blocks(touched)
        report.blocks_written = int(local_vbns.size)
        report.stripes = int(touched.size)
        return report

    def _price_cp_writes(self, local_vbns: np.ndarray,
                         report: GroupCPReport) -> GroupCPReport:
        if local_vbns.size == 0:
            return report
        stats: StripeWriteStats = analyze_raid_writes(
            self.geometry, local_vbns, failed_disks=self.failed_disks
        )
        report.blocks_written = stats.data_blocks
        report.stripes = stats.stripes_written
        report.full_stripes = stats.full_stripes
        report.partial_stripes = stats.partial_stripes
        report.tetrises = stats.tetrises
        report.chains = stats.total_chains
        report.parity_reads = stats.parity_blocks_read
        report.reconstruction_reads += stats.reconstruction_reads
        report.degraded_stripes = stats.degraded_stripes
        report.blocks_per_disk = stats.blocks_per_disk
        self.reconstruction_reads += stats.reconstruction_reads

        # The analysis already lexsorted the writes disk-major; slice
        # each device's sorted DBN run out of that single sort.
        sd, sb = stats.sorted_disks, stats.sorted_dbns
        bounds = np.searchsorted(sd, np.arange(self.geometry.ndata + 1))
        busy: list[float] = []
        # Parity reads are spread uniformly across the group's surviving
        # devices (failed devices absorb no I/O).
        live = max(self.survivor_count, 1)
        reads_per_dev = stats.parity_blocks_read // live
        for d, dev in enumerate(self.data_devices):
            mine = sb[bounds[d] : bounds[d + 1]]
            us = self._issue_writes(dev, mine)
            us += dev.read_blocks(reads_per_dev)
            busy.append(us)
        for p, dev in enumerate(self.parity_devices):
            if self.geometry.mirrored:
                # Mirror device p copies data device p's written DBNs.
                mine = sb[bounds[p] : bounds[p + 1]]
            else:
                mine = stats.touched_stripes
            us = self._issue_writes(dev, mine)
            us += dev.read_blocks(reads_per_dev)
            busy.append(us)
        report.device_busy_us += max(busy) if busy else 0.0
        return report

    def _issue_writes(self, dev: Device, dbns: np.ndarray) -> float:
        """Issue one disk's CP writes in allocation order.

        WAFL writes each allocation area "fully from beginning to end"
        (section 3.2.4), so the device sees one I/O stream per AA
        segment.  With AZCS, each segment is expanded with its touched
        regions' checksum blocks; a region straddling a misaligned AA
        boundary therefore gets its checksum block written again by the
        next AA's stream — the random rewrite Figure 4C eliminates.
        """
        if dbns.size == 0:
            return 0.0
        if not self.azcs:
            return dev.write_blocks(dbns)
        us = 0.0
        bounds = np.flatnonzero(run_starts(dbns // self.topology.stripes_per_aa)).tolist()
        for lo, hi in zip(bounds, bounds[1:] + [dbns.size]):
            us += dev.write_blocks(azcs_expand(dbns[lo:hi]))
        return us

    def live_ssds(self) -> list[tuple[int, SSD]]:
        """``(d, device)`` per live SSD data disk ``d`` and mirror twin
        (which holds exactly data disk ``d``'s DBNs)."""
        if self.media is not MediaType.SSD:
            return []
        mirrors = self.parity_devices if self.geometry.mirrored else []
        return [(d, dev) for devs in (self.data_devices, mirrors)
                for d, dev in enumerate(devs) if not dev.failed]

    def trim(self, freed: np.ndarray) -> None:
        """TRIM the local VBNs a committed CP freed: data disk ``d`` (and
        its twin) takes the slice of the sorted VBNs in
        ``[d * bpd, (d + 1) * bpd)``, rebased to DBNs."""
        members = self.live_ssds()
        if freed.size and members:
            bpd = self.geometry.blocks_per_disk
            sv = np.sort(freed)
            cuts = np.searchsorted(sv, np.arange(self.geometry.ndata + 1) * bpd).tolist()
            for d, dev in members:
                dev.trim(sv[cuts[d] : cuts[d + 1]] - d * bpd)


class RAIDStore:
    """The member of an :class:`Aggregate` that holds the
    ``tier.n_groups`` RAID groups of one :class:`TierSpec` tier,
    numbered from ``base`` (the tier's first global VBN).

    ``threshold_fraction`` is the section 3.3.1 fragmentation cutoff
    (:attr:`~repro.common.config.AggregateSpec.threshold_fraction`),
    handed to the :class:`AggregateAllocator` that consumes it.
    """

    def __init__(
        self,
        tier: TierSpec,
        *,
        base: int = 0,
        policy: PolicyKind = PolicyKind.CACHE,
        threshold_fraction: float = 0.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        rng = make_rng(seed)
        self.groups: list[RAIDGroupRuntime] = []
        offset = base
        for i in range(tier.n_groups):
            g = RAIDGroupRuntime(tier, offset=offset, policy=policy, seed=rng, name=f"rg{i}")
            g.where = f"group:{i}"
            self.groups.append(g)
            offset += g.geometry.data_blocks
        self.nblocks = offset - base
        self.allocator = AggregateAllocator(
            self.groups, threshold_fraction=threshold_fraction
        )
        self._bounds = np.asarray([g.offset for g in self.groups] + [offset], dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def free_count(self) -> int:
        return sum(g.free_count for g in self.groups)

    def physical_instances(self) -> list[tuple[str, AllocSpace, int]]:
        """``(where, group, global VBN base)`` per group, in VBN order."""
        return [(g.where, g, g.offset) for g in self.groups]

    def allocate(self, n: int) -> np.ndarray:
        """Allocate ``n`` physical blocks across the RAID groups."""
        return self.allocator.allocate(n)

    def log_free(self, vbns: np.ndarray) -> None:
        """Log global VBNs for freeing at the next CP boundary, in their groups' logs."""
        vbns = np.asarray(vbns, dtype=np.int64)
        for g, glob in zip(self.groups, route_vbns(vbns, self._bounds)):
            if glob.size:
                g.delayed_frees.add(glob - g.offset if g.offset else glob)

    def cp_boundary(self, written: np.ndarray, reads: int) -> StoreCPReport:
        """Run the store-side CP boundary (see module docstring) for a CP
        that placed the global VBNs ``written`` here and served ``reads``
        client random reads, split evenly over the groups."""
        grps: list[GroupCPReport] = []
        for g, glob in zip(self.groups, route_vbns(written, self._bounds)):
            # Reads are charged next to the writes, with no span edge
            # between: a crash cannot leave a group's reads pending.
            us = g.read_random(reads / len(self.groups))
            grp = g.price_cp_writes(glob - g.offset)
            grp.device_busy_us += us
            grp.device_total_us = grp.device_busy_us
            grp.freed = g.apply_frees()
            grp.blocks_freed = int(grp.freed.size)
            grps.append(grp)
        # Flush batched score deltas into the caches (rebalancing).
        with obs.span("cp.cache_flush"):
            self.allocator.cp_flush()
        for g, grp in zip(self.groups, grps):
            grp.add_space_deltas(g.drain_cp())
        report = merge_reports(grps)
        report.groups = grps
        return report


class LinearStore(AllocSpace):
    """The member of an :class:`Aggregate` for a natively redundant
    (object) tier: a linear :class:`AllocSpace` (HBPS cache) over a
    single device model."""

    def __init__(
        self,
        nblocks: int,
        *,
        blocks_per_aa: int = RAID_AGNOSTIC_AA_BLOCKS,
        base: int = 0,
        policy: PolicyKind = PolicyKind.CACHE,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(
            LinearAATopology(nblocks, blocks_per_aa),
            where="store", policy=policy, seed=seed, offset=base,
        )
        self.nblocks = nblocks
        self._bounds = (base, base + nblocks)
        self.device = ObjectStore(nblocks)

    # ------------------------------------------------------------------
    @property
    def devices(self) -> list[Device]:
        return [self.device]

    def physical_instances(self) -> list[tuple[str, AllocSpace, int]]:
        """A linear store is its own (single) space."""
        return [(self.where, self, self.offset)]

    def _check_media(self, n: int) -> None:
        """A natively redundant object store has no local parity: any
        latent sector error is immediately unrecoverable
        (:class:`MediaError` — Iron's case)."""
        inj = self.injector
        if inj is not None and (
            inj.roll(self.where, "latent-sector-error", n)
            or inj.consume(self.where, "unreconstructable")
        ):
            raise MediaError(
                f"{self.where}: metafile blocks damaged (no local RAID to "
                f"reconstruct them)"
            )

    def allocate(self, n: int) -> np.ndarray:
        return self.allocator.allocate(n)

    def log_free(self, vbns: np.ndarray) -> None:
        (glob,) = route_vbns(np.asarray(vbns, dtype=np.int64), self._bounds)
        if glob.size:
            self.delayed_frees.add(glob - self.offset if self.offset else glob)

    def cp_boundary(self, written: np.ndarray, reads: int) -> StoreCPReport:
        """The CP boundary of a CP that placed the global VBNs
        ``written`` here and served ``reads`` client random reads."""
        report = StoreCPReport()
        read_us = self.device.read_blocks(reads) if reads > 0 else 0.0
        if written.size:
            vbns = np.sort(written)
            report.blocks_written = int(vbns.size)
            report.chains = Device.chains_of(vbns)
            with obs.span("store.write", blocks=int(vbns.size)):
                report.device_busy_us = self.device.write_blocks(vbns - self.offset)
                obs.advance_us(report.device_busy_us)
        report.device_busy_us += read_us
        report.blocks_freed = int(self.apply_frees().size)
        with obs.span("cp.cache_flush"):
            self.allocator.cp_flush()
        report.add_space_deltas(self.drain_cp())
        report.device_total_us = report.device_busy_us
        return report


class Aggregate:
    """The aggregate every :class:`AggregateSpec` builds: one member
    store per declared tier, in declaration order, each at its global
    VBN base — ``bases[k]`` — so member ``k`` owns
    ``[bases[k], bases[k + 1])``.

    Fault and Iron addresses (``where``) are global: RAID groups are
    ``group:<i>`` numbered across tiers (``groups`` lists them in that
    order), a lone object tier is ``store`` and an object tier among
    several ``store:<label>``.  Members consume the shared ``seed``
    generator in declaration order, so the same spec and seed rebuild
    the same aggregate bit for bit.

    Placement is per-volume tier pinning: the build-time chooser
    (:func:`~repro.fs.tiers.choose_tier`) pins each declared volume to a
    tier, :meth:`assign` re-pins one, and :meth:`place` fills the pinned
    tier first, then the others in declaration order.  A
    :attr:`tier_policy`, when set, replaces the pinning for every
    volume.  With one tier, frees and allocations go straight to the
    one member.
    """

    #: Placement that replaces the per-volume pinning
    #: (:class:`repro.tiering.FlashPoolPolicy`); None: pinning.
    tier_policy: TierPolicy | None = None

    def __init__(
        self,
        spec: AggregateSpec,
        *,
        policy: PolicyKind = PolicyKind.CACHE,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        rng = make_rng(seed)
        self.tiers = list(spec.tiers)
        self.labels = [t.label for t in self.tiers]
        self.members: list[RAIDStore | LinearStore] = []
        self.groups: list[RAIDGroupRuntime] = []
        self.bases: list[int] = []
        base = 0
        for tier in self.tiers:
            member: RAIDStore | LinearStore
            if tier.media == "object":
                member = LinearStore(tier.nblocks, blocks_per_aa=tier.blocks_per_aa,
                                     base=base, policy=policy, seed=rng)
                if len(self.tiers) > 1:
                    member.where = f"store:{tier.label}"
            else:
                member = RAIDStore(tier, base=base, policy=policy,
                                   threshold_fraction=spec.threshold_fraction, seed=rng)
                for g in member.groups:
                    g.where = f"group:{len(self.groups)}"
                    self.groups.append(g)
            self.members.append(member)
            self.bases.append(base)
            base += member.nblocks
        self.nblocks = base
        self._members = dict(zip(self.labels, self.members))
        self._bounds = np.asarray([*self.bases, base], dtype=np.int64)
        self.assignments = {v.name: choose_tier(self.tiers, v.workload) for v in spec.volumes}
        #: Where a volume the spec does not declare is pinned.
        self.default_tier = choose_tier(self.tiers, "mixed")

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def tier_of(self, vol_name: str) -> str:
        """The tier ``vol_name`` is pinned to."""
        return self.assignments.get(vol_name, self.default_tier)

    def assign(self, vol_name: str, label: str) -> None:
        """Pin ``vol_name`` to tier ``label`` from the next CP on."""
        if label not in self._members:
            raise TieringError(f"unknown tier {label!r}; aggregate tiers: {self.labels}")
        self.assignments[vol_name] = label

    def place(self, vol_name: str, n: int) -> np.ndarray:
        """``n`` blocks for ``vol_name``: its pinned tier first, then
        the others in declaration order."""
        label = self.tier_of(vol_name)
        return self.allocate_in([label, *(t for t in self.labels if t != label)], n)

    def allocate_in(self, labels: Sequence[str], n: int) -> np.ndarray:
        """``n`` blocks from the tiers ``labels``, in that order of
        preference: each tier is asked for what the ones before it could
        not give.  Returns global VBNs; an unknown label is refused
        before anything is allocated, and a shortfall raises
        :class:`OutOfSpaceError`."""
        unknown = [t for t in labels if t not in self._members]
        if unknown:
            raise TieringError(f"unknown tier {unknown[0]!r}; aggregate tiers: {self.labels}")
        out: list[np.ndarray] = []
        got = 0
        for label in labels:
            if got >= n:
                break
            take = self._members[label].allocate(n - got)
            if take.size:
                out.append(take)
                got += take.size
        if got < n:
            raise OutOfSpaceError(
                f"aggregate out of space: {got} of {n} physical blocks allocated "
                f"on tiers {list(labels)}"
            )
        if not out:
            return np.empty(0, dtype=np.int64)
        return out[0] if len(out) == 1 else np.concatenate(out)

    def tier_usage(self) -> dict[str, dict[str, int]]:
        """Per-tier capacity snapshot: total, used, and free blocks."""
        out: dict[str, dict[str, int]] = {}
        for label, member in self._members.items():
            free = member.free_count
            out[label] = {"nblocks": member.nblocks, "used": member.nblocks - free, "free": free}
        return out

    # ------------------------------------------------------------------
    # The surface the CP engine, mount, Iron, recovery and the auditor use
    # ------------------------------------------------------------------
    @property
    def free_count(self) -> int:
        """Free physical blocks (net of allocator pending spans)."""
        return sum(m.free_count for m in self.members)

    @property
    def devices(self) -> list[Device]:
        return [d for _, fs, _ in self.physical_instances() for d in fs.devices]

    def physical_instances(self) -> list[tuple[str, AllocSpace, int]]:
        """``(where, space, global VBN base)`` per allocation space, in
        VBN order — what Iron, the auditor, recovery and mount walk."""
        return [inst for m in self.members for inst in m.physical_instances()]

    def attach_injector(self, injector) -> None:
        """Attach a fault injector to every space's read paths."""
        for _, fs, _ in self.physical_instances():
            fs.attach_injector(injector)

    def selected_aa_free_fractions(self) -> np.ndarray:
        """Free fraction of every AA at the moment it was selected
        (the section 4.1 trace), space by space."""
        return np.concatenate(
            [fs.selected_aa_free_fractions() for _, fs, _ in self.physical_instances()]
        )

    def fail_disk(self, group_index: int, disk_index: int, *, parity: bool = False) -> None:
        """Inject a whole-device failure into RAID group ``group_index``."""
        self.groups[group_index].fail_disk(disk_index, parity=parity)

    def log_free(self, vbns: np.ndarray) -> None:
        """Log global VBNs for freeing at the next CP boundary, with the
        members that own them; a VBN outside ``[0, nblocks)`` refuses
        the whole batch (BitmapError)."""
        vbns = np.asarray(vbns, dtype=np.int64)
        if vbns.size == 0:
            return
        if len(self.members) == 1:
            self.members[0].log_free(vbns)
            return
        for member, glob in zip(self.members, route_vbns(vbns, self._bounds)):
            if glob.size:
                member.log_free(glob)

    def cp_boundary(self, written: np.ndarray, reads: int) -> StoreCPReport:
        """Run every member's CP boundary with the ``written`` global VBNs
        it holds and a share of the ``reads`` proportional to its
        capacity (the deterministic stand-in for per-tier residency).
        One member's report is the aggregate's; several merge, and each
        lands in ``by_tier``."""
        if len(self.members) == 1:
            return self.members[0].cp_boundary(written, reads)
        shares, left = [], reads
        for member in self.members[:-1]:
            share = min(left, int(round(reads * member.nblocks / self.nblocks)))
            shares.append(share)
            left -= share
        shares.append(left)
        parts = [m.cp_boundary(glob, n) for m, glob, n in
                 zip(self.members, route_vbns(written, self._bounds), shares)]
        report = merge_reports(parts)
        report.groups = [grp for r in parts for grp in r.groups]
        report.by_tier = dict(zip(self.labels, parts))
        return report
