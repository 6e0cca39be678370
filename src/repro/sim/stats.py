"""Per-CP and cumulative simulation metrics.

Every consistency point produces a :class:`CPStats` record; a
:class:`MetricsLog` accumulates them and derives the quantities the
paper reports: mean selected-AA free fraction, full-stripe fraction,
metafile blocks updated per operation, write amplification, per-op
CPU and device cost — and :func:`bottleneck_capacity_ops`, the
saturation throughput those per-op costs imply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CPStats", "MetricsLog", "bottleneck_capacity_ops"]

_MISSING = object()


def bottleneck_capacity_ops(
    cpu_us_per_op: float, device_us_per_op: float, cores: int
) -> float:
    """Saturation throughput (ops/s, whole server): WAFL's CP pipeline
    parallelizes across ``cores`` while the (already parallel-summed)
    bottleneck device does not; whichever saturates first pins it.  The
    traffic engine's occupancy model saturates here too."""
    if cpu_us_per_op < 0 or device_us_per_op < 0:
        raise ValueError("per-op costs must be non-negative")
    cpu_cap = cores * 1e6 / cpu_us_per_op if cpu_us_per_op else float("inf")
    dev_cap = 1e6 / device_us_per_op if device_us_per_op else float("inf")
    return min(cpu_cap, dev_cap)


@dataclass
class CPStats:
    """Measurements from one consistency point."""

    cp_index: int = 0
    #: Client operations absorbed by this CP.
    ops: int = 0
    #: Physical blocks written (data written to devices by this CP).
    physical_blocks: int = 0
    #: Virtual (FlexVol) block numbers assigned.
    virtual_blocks: int = 0
    #: Blocks freed (delayed frees applied at this CP boundary).
    blocks_freed: int = 0
    #: Distinct bitmap-metafile blocks dirtied (all metafiles).
    metafile_blocks_dirtied: int = 0
    #: Stripe accounting across all RAID groups.
    full_stripes: int = 0
    partial_stripes: int = 0
    tetrises: int = 0
    write_chains: int = 0
    parity_reads: int = 0
    #: Extra reads forced by degraded-mode RAID (parity reconstruction
    #: of blocks on failed members; see :mod:`repro.faults`).
    reconstruction_reads: int = 0
    #: Stripes written while a RAID group was missing devices.
    degraded_stripes: int = 0
    #: Device busy time: bottleneck (max over devices) and sum.
    device_busy_us: float = 0.0
    device_total_us: float = 0.0
    #: AA-cache maintenance operations performed at the CP boundary.
    cache_ops: int = 0
    #: Allocation-area switches made while assigning this CP's blocks.
    aa_switches: int = 0
    #: Bitmap VBNs spanned by the CP's allocation scans (the inverse-
    #: free-density cost driver; see :mod:`repro.sim.cpu`).
    spanned_blocks: int = 0
    #: Modeled WAFL CPU time for this CP (see :mod:`repro.sim.cpu`).
    cpu_us: float = 0.0
    #: Client operations by traffic source (tenant name) — empty for
    #: single-source workloads.  Lets the traffic engine charge CP
    #: service back to the tenants whose ops rode in this CP.
    ops_by_source: dict[str, int] = field(default_factory=dict)
    #: Tiered aggregates only: physical blocks written / freed per tier
    #: label this CP (empty for single-tier stores).
    blocks_by_tier: dict[str, int] = field(default_factory=dict)
    freed_by_tier: dict[str, int] = field(default_factory=dict)

    @property
    def full_stripe_fraction(self) -> float:
        total = self.full_stripes + self.partial_stripes
        return self.full_stripes / total if total else 0.0

    def accounting_violations(self) -> list[str]:
        """Field-level sanity failures of this record (empty = sane).

        Cheap self-consistency checks the invariant auditor folds into
        its per-CP report: counters must be non-negative and the summed
        device time must cover the bottleneck device time.
        """
        out: list[str] = []
        for name in (
            "ops",
            "physical_blocks",
            "virtual_blocks",
            "blocks_freed",
            "metafile_blocks_dirtied",
            "full_stripes",
            "partial_stripes",
            "tetrises",
            "write_chains",
            "parity_reads",
            "reconstruction_reads",
            "degraded_stripes",
            "cache_ops",
            "aa_switches",
            "spanned_blocks",
        ):
            value = getattr(self, name)
            if value < 0:
                out.append(f"CPStats.{name} is negative ({value})")
        if self.device_busy_us < 0 or self.device_total_us < 0 or self.cpu_us < 0:
            out.append("negative time counter in CPStats")
        if self.device_total_us + 1e-6 < self.device_busy_us:
            out.append(
                f"device_total_us {self.device_total_us} < bottleneck "
                f"device_busy_us {self.device_busy_us}"
            )
        return out


class MetricsLog:
    """Accumulates :class:`CPStats` and exposes run-level summaries.

    Read metrics through :meth:`query` — one accessor for summary
    scalars, raw recorded series, per-tenant traffic series (via the
    ``tenant=`` tag), and the CPU phase breakdown.
    """

    #: Summary scalars resolvable by :meth:`query` name.
    SUMMARY_METRICS = frozenset(
        {
            "total_ops",
            "total_physical_blocks",
            "total_cpu_us",
            "total_device_busy_us",
            "cpu_us_per_op",
            "device_us_per_op",
            "service_us_per_op",
            "metafile_blocks_per_op",
            "full_stripe_fraction",
            "mean_chain_length",
        }
    )

    def __init__(self) -> None:
        self.cps: list[CPStats] = []
        # Named time series recorded alongside the per-CP records — e.g.
        # the traffic engine's per-tenant ``traffic.<name>.p99_ms`` and
        # ``traffic.<name>.achieved_ops_s`` (one sample per CP interval).
        self._series: dict[str, list[float]] = {}

    def add(self, stats: CPStats) -> None:
        self.cps.append(stats)

    def record_point(self, name: str, value: float) -> None:
        """Append one sample to the named time series."""
        self._series.setdefault(name, []).append(float(value))

    def reset_series(self) -> None:
        """Drop all recorded time series (the per-CP records stay)."""
        self._series.clear()

    # ------------------------------------------------------------------
    def query(self, metric: str, *, default=_MISSING, **tags):
        """Unified metric accessor.

        * ``query("cpu_us_per_op")`` — any summary scalar in
          :attr:`SUMMARY_METRICS`.
        * ``query("p99_ms", tenant="gold")`` — per-tenant traffic series
          (resolves to the recorded ``traffic.gold.p99_ms`` series).
        * ``query("traffic.gold.p99_ms")`` — any raw recorded series by
          its full name.
        * ``query("cpu_phase_us", model=engine.cpu_model)`` — the CPU phase
          breakdown dict; add ``phase="blocks"`` for one phase's total.

        Series are returned as copies.  Unknown metrics raise
        :class:`KeyError` unless ``default=`` is given.
        """
        if metric == "cpu_phase_us":
            model = tags.pop("model", None)
            phase = tags.pop("phase", None)
            if tags:
                raise TypeError(f"unknown tags for {metric!r}: {sorted(tags)}")
            if model is None:
                raise TypeError("query('cpu_phase_us') requires model=<CpuModel>")
            phases = self._cpu_phase_us(model)
            if phase is None:
                return phases
            if phase in phases:
                return phases[phase]
            if default is not _MISSING:
                return default
            raise KeyError(
                f"unknown CPU phase {phase!r}; available: {sorted(phases)}"
            )
        tenant = tags.pop("tenant", None)
        if tags:
            raise TypeError(f"unknown tags for {metric!r}: {sorted(tags)}")
        if tenant is not None:
            key = f"traffic.{tenant}.{metric}"
            if key in self._series:
                return list(self._series[key])
            if default is not _MISSING:
                return default
            raise KeyError(
                f"no series {key!r} recorded; available: {sorted(self._series)}"
            )
        if metric in self.SUMMARY_METRICS:
            return getattr(self, metric)
        if metric in self._series:
            return list(self._series[metric])
        if default is not _MISSING:
            return default
        raise KeyError(
            f"unknown metric {metric!r}; summary metrics: "
            f"{sorted(self.SUMMARY_METRICS)}; recorded series: "
            f"{sorted(self._series)}"
        )

    # ------------------------------------------------------------------
    def _sum(self, attr: str) -> float:
        return float(sum(getattr(c, attr) for c in self.cps))

    @property
    def total_ops(self) -> int:
        return int(self._sum("ops"))

    @property
    def total_physical_blocks(self) -> int:
        return int(self._sum("physical_blocks"))

    @property
    def total_cpu_us(self) -> float:
        return self._sum("cpu_us")

    @property
    def total_device_busy_us(self) -> float:
        return self._sum("device_busy_us")

    @property
    def cpu_us_per_op(self) -> float:
        """Mean WAFL CPU microseconds per client operation — the
        "computational overhead per operation" of section 4.1.2."""
        ops = self.total_ops
        return self.total_cpu_us / ops if ops else 0.0

    @property
    def device_us_per_op(self) -> float:
        """Mean bottleneck-device microseconds per client operation."""
        ops = self.total_ops
        return self.total_device_busy_us / ops if ops else 0.0

    @property
    def service_us_per_op(self) -> float:
        """Per-op service time: CPU plus bottleneck device time.  This
        is the quantity the latency model converts into
        latency-vs-throughput curves."""
        return self.cpu_us_per_op + self.device_us_per_op

    @property
    def metafile_blocks_per_op(self) -> float:
        ops = self.total_ops
        return self._sum("metafile_blocks_dirtied") / ops if ops else 0.0

    @property
    def full_stripe_fraction(self) -> float:
        full = self._sum("full_stripes")
        total = full + self._sum("partial_stripes")
        return full / total if total else 0.0

    @property
    def mean_chain_length(self) -> float:
        chains = self._sum("write_chains")
        return self.total_physical_blocks / chains if chains else 0.0

    def _cpu_phase_us(self, model) -> dict[str, float]:
        """Total modeled CPU per pipeline phase across the run.

        Re-derives each CP's charge decomposition from its counted
        events via ``model.cp_cpu_breakdown`` (the same inputs
        ``run_cp`` used), so the phase totals sum to ``total_cpu_us``.
        """
        totals: dict[str, float] = {}
        for c in self.cps:
            parts = model.cp_cpu_breakdown(
                ops=c.ops,
                blocks=c.physical_blocks + c.virtual_blocks,
                metafile_blocks=c.metafile_blocks_dirtied,
                aa_switches=c.aa_switches,
                cache_ops=c.cache_ops,
                spanned_blocks=c.spanned_blocks,
            )
            for name, us in parts.items():
                totals[name] = totals.get(name, 0.0) + us
        return totals

    def tail(self, n: int) -> "MetricsLog":
        """Metrics over the last ``n`` CPs (steady-state window)."""
        out = MetricsLog()
        out.cps = self.cps[-n:]
        return out

    def summary(self) -> dict[str, float]:
        """Flat dict of headline metrics (benchmark table rows)."""
        return {
            "ops": float(self.total_ops),
            "cps": float(len(self.cps)),
            "physical_blocks": float(self.total_physical_blocks),
            "cpu_us_per_op": self.cpu_us_per_op,
            "device_us_per_op": self.device_us_per_op,
            "service_us_per_op": self.service_us_per_op,
            "metafile_blocks_per_op": self.metafile_blocks_per_op,
            "full_stripe_fraction": self.full_stripe_fraction,
            "mean_chain_length": self.mean_chain_length,
        }
