"""End-to-end tracing: the auditor reconciles every traced CP exactly
with its CPStats record and fails on drift, and same-seed traced reruns
are byte-identical."""

from __future__ import annotations

import pytest

from repro import obs
from repro.analysis import InvariantAuditor, arm_global, disarm_global
from repro.bench.drills import disk_failure_schedule, traffic_engine
from repro.drill import run_drill
from repro.obs.report import (
    RECONCILED_COUNTERS,
    complete_cps,
    cp_counter_totals,
    span_tree_lines,
)
from repro.traffic import run_traffic
from repro.workloads import RandomOverwriteWorkload, fill_volumes

from ..conftest import small_ssd_sim


def audited_sim_run(n_cps: int = 3, *, traced: bool = True):
    """A small single-source run, every CP audited (raising on any
    violation); returns (records, sim)."""
    tracer = obs.install() if traced else None
    try:
        sim = small_ssd_sim()
        fill_volumes(sim)
        sim.engine.auditor = InvariantAuditor()
        sim.run(RandomOverwriteWorkload(sim, ops_per_cp=512, seed=3), n_cps)
    finally:
        obs.uninstall()
    return (tracer.records() if traced else []), sim


class TestReconciliation:
    def test_traced_run_reconciles_with_cpstats(self):
        # The auditor runs its trace-vs-stats check on every traced CP
        # (one check more than an untraced audit) and it holds.
        records, sim = audited_sim_run()
        _, plain = audited_sim_run(traced=False)
        assert complete_cps(records), "no complete CPs traced"
        traced_reports, plain_reports = sim.engine.auditor.reports, plain.engine.auditor.reports
        assert len(traced_reports) == len(plain_reports) == 3
        for traced, untraced in zip(traced_reports, plain_reports):
            assert traced.ok and traced.checks_run == untraced.checks_run + 1

    def test_every_reconciled_counter_is_emitted(self):
        records, _ = audited_sim_run()
        last = max(complete_cps(records))
        emitted = set(cp_counter_totals(records)[last])
        assert set(RECONCILED_COUNTERS) <= emitted

    def test_span_tree_covers_the_cp_pipeline(self):
        records, _ = audited_sim_run()
        tree = "\n".join(span_tree_lines(records))
        for name in ("cp.allocate", "cp.boundary", "rg.price_writes",
                     "raid.analyze", "cp.cache_flush"):
            assert name in tree, f"span {name} missing from tree"

    def test_traced_traffic_run_reconciles(self):
        tracer = obs.install()
        arm_global()
        try:
            run = run_traffic("uniform", n_tenants=2, seed=11, quick=True)
        finally:
            disarm_global()
            obs.uninstall()
        records = tracer.records()
        assert run.sim.engine.auditor.cps_audited >= len(run.sim.metrics.cps) > 0
        # Per-tenant span tags reach the trace.
        tagged = [
            r for r in records
            if r.name == "traffic.admitted_ops"
            and any(k == "tenant" for k, _ in r.tags)
        ]
        assert tagged


class TestAuditIntegration:
    def test_audited_traced_run_passes_trace_check(self):
        tracer = obs.install()
        try:
            sim = small_ssd_sim()
            fill_volumes(sim)
            sim.engine.auditor = InvariantAuditor()
            sim.run(RandomOverwriteWorkload(sim, ops_per_cp=512, seed=3), 2)
        finally:
            obs.uninstall()
        assert sim.engine.auditor.cps_audited >= 2
        assert all(r.ok for r in sim.engine.auditor.reports)
        assert len(tracer.records()) > 0

    def test_drifting_instrumentation_fails_the_audit(self):
        # Inject counter drift right before the boundary of the last CP:
        # the auditor's trace-vs-stats check must flag it.
        from repro.common.errors import AuditError

        obs.install()
        try:
            sim = small_ssd_sim()
            fill_volumes(sim)
            sim.engine.auditor = InvariantAuditor()
            sim.run(RandomOverwriteWorkload(sim, ops_per_cp=512, seed=3), 1)
            original_after = sim.engine.auditor.after_cp

            def corrupt_then_audit(engine, stats):
                obs.count("cp.physical_blocks", 1, where="store")
                return original_after(engine, stats)

            sim.engine.auditor.after_cp = corrupt_then_audit
            with pytest.raises(AuditError, match="trace-vs-stats"):
                sim.run(
                    RandomOverwriteWorkload(sim, ops_per_cp=512, seed=4), 1
                )
        finally:
            obs.uninstall()


class TestDeterminism:
    @staticmethod
    def chaos_trace() -> str:
        tracer = obs.install()
        try:
            engine = traffic_engine("uniform", 2, 16384, seed=11)
            run_drill(engine, disk_failure_schedule(9), 9)
        finally:
            obs.uninstall()
        return obs.export.to_chrome(tracer.records())

    def test_chaos_trace_byte_identical_across_reruns(self):
        # An enabled trace of a chaos run is byte-identical across
        # reruns with the same seed.
        assert self.chaos_trace() == self.chaos_trace()
