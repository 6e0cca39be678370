"""Shared benchmark harness: the standard testbed, the measurement
phase, and the table formatting the experiment table
(:mod:`repro.bench.experiments`) and ``perfbench/`` are built from.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

from ..common.config import AggregateSpec, TierSpec, VolumeDecl
from ..common.constants import CORES, NCLIENTS
from ..fs.aggregate import PolicyKind
from ..fs.filesystem import WaflSim
from ..sim.stats import bottleneck_capacity_ops
from ..workloads.aging import (
    age_filesystem,
    popcount_audit,
    reset_measurement_state,
    set_bitmap_checks,
)
from ..workloads.oltp import OLTPWorkload
from ..workloads.random_overwrite import RandomOverwriteWorkload

__all__ = [
    "RESULTS_DIR",
    "ConfigResult",
    "build_aged_ssd_sim",
    "fill_group_statically",
    "measure_random_overwrite",
    "set_bitmap_checks",
    "popcount_audit",
    "fmt_table",
    "document_tables",
    "CORES",
    "NCLIENTS",
]

#: Where ``repro bench`` / ``trace`` write (git-ignored).
RESULTS_DIR = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", "..", "..", "benchmarks", "results")
)


@dataclass
class ConfigResult:
    """Measured outcome of one configuration's measurement phase."""

    label: str
    cpu_us_per_op: float
    device_us_per_op: float
    agg_selected_free: float
    vol_selected_free: float
    aggregate_free: float
    write_amplification: float
    metafile_blocks_per_op: float
    full_stripe_fraction: float
    mean_chain_length: float

    @property
    def capacity_ops(self) -> float:
        """Bottleneck throughput (ops/s) under the 20-core model."""
        return bottleneck_capacity_ops(self.cpu_us_per_op, self.device_us_per_op, CORES)

    def as_dict(self) -> dict:
        """The persisted form: every field plus the derived capacity."""
        return dict(asdict(self), capacity_ops=self.capacity_ops)


def build_aged_ssd_sim(
    *,
    aggregate_policy: PolicyKind = PolicyKind.CACHE,
    vol_policy: PolicyKind = PolicyKind.CACHE,
    n_groups: int = 2,
    ndata: int = 4,
    blocks_per_disk: int = 131072,
    stripes_per_aa: int | None = None,
    erase_block_blocks: int = 512,
    program_us_per_block: float = 16.0,
    fill_fraction: float = 0.55,
    churn_factor: float = 2.0,
    seed: int = 42,
) -> WaflSim:
    """The section 4.1 testbed: an all-SSD aggregate 'filled up to 55%
    and thoroughly fragmented by applying heavy random write traffic',
    with free-space defragmentation disabled (we implement none during
    measurement) and LUN-like volumes."""
    # program_us calibrated so the device side carries the same weight
    # it does on the paper's testbed (see EXPERIMENTS.md, Fig 6 notes).
    phys = n_groups * ndata * blocks_per_disk
    logical = int(phys * fill_fraction)
    spec = AggregateSpec(
        tiers=(
            TierSpec(
                label="ssd",
                media="ssd",
                raid="raid4",
                n_groups=n_groups,
                ndata=ndata,
                blocks_per_disk=blocks_per_disk,
                stripes_per_aa=stripes_per_aa or 0,
                erase_block_blocks=erase_block_blocks,
                program_us_per_block=program_us_per_block,
            ),
        ),
        volumes=(
            VolumeDecl("lun0", logical_blocks=logical // 2),
            VolumeDecl("lun1", logical_blocks=logical - logical // 2),
        ),
        policy=aggregate_policy.value,
        vol_policy=vol_policy.value,
    )
    sim = WaflSim.build(spec, seed=seed)
    # Aging CPs issue the exact same device writes either way; unpriced
    # mode skips the stripe classification and timing whose outputs the
    # reset below discards (see RAIDGroupRuntime.unpriced).
    for g in sim.store.groups:
        g.unpriced = True
    try:
        age_filesystem(sim, churn_factor=churn_factor, ops_per_cp=16384, seed=seed)
    finally:
        for g in sim.store.groups:
            g.unpriced = False
    reset_measurement_state(sim)
    set_bitmap_checks(sim, False)
    return sim


def fill_group_statically(group, fraction: float, rng: np.random.Generator) -> None:
    """Mark a random ``fraction`` of a RAID group's blocks in use without
    mapping them to any volume: old data sitting untouched, so the
    group stays that fragmented however the workload churns."""
    n = group.topology.nblocks
    taken = rng.choice(n, size=int(n * fraction), replace=False)
    group.metafile.allocate(np.sort(taken))
    group.metafile.drain_dirty()
    group.keeper.recompute(group.metafile.bitmap)
    group.rebuild_cache(group.keeper.scores)


def measure_random_overwrite(
    sim: WaflSim,
    label: str,
    *,
    n_cps: int = 40,
    ops_per_cp: int = 8192,
    read_fraction: float = 0.0,
    blocks_per_op: int = 2,
    working_set_fraction: float = 1.0,
    seed: int = 777,
) -> ConfigResult:
    """Run the paper's random-overwrite measurement phase (optionally a
    mixed read/write OLTP-style load, as Figures 7/8 use) and collect
    every quantity section 4.1 reports."""
    if read_fraction > 0.0:
        wl = OLTPWorkload(
            sim, ops_per_cp=ops_per_cp, read_fraction=read_fraction,
            blocks_per_write_op=blocks_per_op, seed=seed,
        )
    else:
        wl = RandomOverwriteWorkload(
            sim,
            ops_per_cp=ops_per_cp,
            blocks_per_op=blocks_per_op,
            working_set_fraction=working_set_fraction,
            seed=seed,
        )
    sim.run(wl, n_cps)
    popcount_audit(sim)
    m = sim.metrics
    agg_sel = sim.store.selected_aa_free_fractions()
    vol_sel = np.concatenate(
        [v.selected_aa_free_fractions() for v in sim.vols.values()]
    )
    was = [
        d.write_amplification
        for g in sim.store.groups
        for d in g.data_devices
        if d.stats.host_blocks_written
    ]
    return ConfigResult(
        label=label,
        cpu_us_per_op=m.cpu_us_per_op,
        device_us_per_op=m.device_us_per_op,
        agg_selected_free=float(agg_sel.mean()) if agg_sel.size else 0.0,
        vol_selected_free=float(vol_sel.mean()) if vol_sel.size else 0.0,
        aggregate_free=1.0 - sim.utilization,
        write_amplification=float(np.mean(was)) if was else 1.0,
        metafile_blocks_per_op=m.metafile_blocks_per_op,
        full_stripe_fraction=m.full_stripe_fraction,
        mean_chain_length=m.mean_chain_length,
    )


def fmt_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Fixed-width text table (the benches' figure surrogate)."""
    str_rows = [[_fmt_cell(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def _flat(value: dict | list) -> bool:
    items = value.values() if isinstance(value, dict) else value
    return not any(isinstance(v, (dict, list)) for v in items)


def _fits_cell(value) -> bool:
    """A scalar, or a collection of scalars that renders in 60 characters."""
    return not isinstance(value, (dict, list)) or (
        _flat(value) and len(_fmt_cell(value)) <= 60
    )


def document_tables(results: dict[str, dict]) -> list[str]:
    """Result documents as text, whatever their metrics are.  Per unit:
    one table of the metrics that fit a cell, then one per metric that
    is a record (a dict of scalars) or a collection of records (a list
    of dicts, or a dict of them by name): a row per record, or a column
    per record when they are few and wide.  Long flat collections (every
    crash row, a thousand placements) stay in the document only."""
    tables = []
    for unit, res in results.items():
        facts, collections = [], []
        for key, value in res["metrics"].items():
            if _fits_cell(value):
                facts.append([key, value])
                continue
            if isinstance(value, dict) and _flat(value) and len(value) <= 16:
                value = [value]
            named = isinstance(value, dict)
            records = list(value.items()) if named else list(enumerate(value))
            if not all(isinstance(r, dict) for _, r in records):
                continue
            columns = [k for k, v in records[0][1].items() if _fits_cell(v)]
            cells = [[r.get(k, "-") for k in columns] for _, r in records]
            if len(columns) > max(8, len(records)):
                header = [key, *(str(name) for name, _ in records)]
                body = [[k, *(row[j] for row in cells)] for j, k in enumerate(columns)]
            else:
                header = ([key] if named else []) + columns
                body = [([name] if named else []) + row
                        for (name, _), row in zip(records, cells)]
            collections.append(fmt_table(header, body, title=f"{unit}: {key}"))
        if facts:
            tables.append(fmt_table(["metric", "value"], facts, title=unit))
        tables += collections
    return tables


def _fmt_cell(c) -> str:
    if isinstance(c, dict):
        return ", ".join(f"{k}={_fmt_cell(v)}" for k, v in c.items()) or "-"
    if isinstance(c, list):
        return ", ".join(_fmt_cell(v) for v in c) or "-"
    if isinstance(c, float):
        if abs(c) >= 1000:
            return f"{c:,.0f}"
        return f"{c:.3f}"
    return str(c)
