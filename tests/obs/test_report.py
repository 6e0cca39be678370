"""Span-tree report and CPStats reconciliation tests."""

from __future__ import annotations

from repro import obs
from repro.obs.report import (
    CP_SENTINEL,
    RECONCILED_COUNTERS,
    complete_cps,
    cp_counter_totals,
    reconcile_current_cp,
    span_tree_lines,
)
from repro.sim.stats import CPStats


def trace_cp(cp_index: int, *, virtual: int = 8, physical: int = 8):
    """Trace one synthetic CP on the installed tracer."""
    obs.set_cp(cp_index)
    obs.count(CP_SENTINEL, cp=cp_index)
    with obs.span("cp", interval=cp_index):
        with obs.span("cp.allocate", vol="v0"):
            obs.count("cp.virtual_blocks", virtual, where="vol:v0")
        with obs.span("cp.boundary"):
            obs.advance_us(10.0)
            obs.count("cp.physical_blocks", physical, where="store")


def matching_stats(cp_index: int, *, virtual: int = 8, physical: int = 8):
    return CPStats(
        cp_index=cp_index, virtual_blocks=virtual, physical_blocks=physical
    )


class TestTotals:
    def test_counter_totals_sum_per_cp(self):
        t = obs.install()
        trace_cp(0)
        trace_cp(1, virtual=3)
        totals = cp_counter_totals(t.records())
        assert totals[0]["cp.virtual_blocks"] == 8.0
        assert totals[1]["cp.virtual_blocks"] == 3.0

    def test_complete_cps_requires_sentinel(self):
        t = obs.install()
        trace_cp(0)
        obs.set_cp(1)  # no sentinel: simulates eviction of CP 1's head
        obs.count("cp.virtual_blocks", 4)
        assert complete_cps(t.records()) == {0}


class TestSpanTree:
    def test_tree_nests_by_depth_and_lists_counters(self):
        t = obs.install()
        trace_cp(0)
        lines = span_tree_lines(t.records())
        assert lines[0] == "CP 0:"
        tree = "\n".join(lines)
        assert "  cp " in tree
        assert "    cp.allocate" in tree  # nested one level deeper
        assert "cp.virtual_blocks = 8" in tree

    def test_cp_filter(self):
        t = obs.install()
        trace_cp(0)
        trace_cp(1)
        lines = span_tree_lines(t.records(), cp=1)
        assert lines[0] == "CP 1:"
        assert not any(line == "CP 0:" for line in lines)

    def test_sentinel_hidden_from_counter_listing(self):
        t = obs.install()
        trace_cp(0)
        assert CP_SENTINEL not in "\n".join(span_tree_lines(t.records()))


class TestReconcile:
    def test_matching_run_reconciles(self):
        # The running totals restart at each CP: the second CP's check
        # sees only its own counters.
        t = obs.install()
        trace_cp(0)
        assert reconcile_current_cp(t, matching_stats(0)) == []
        trace_cp(1, virtual=3, physical=3)
        assert reconcile_current_cp(t, matching_stats(1, virtual=3, physical=3)) == []

    def test_mismatch_is_reported_per_counter(self):
        t = obs.install()
        trace_cp(0)
        problems = reconcile_current_cp(t, matching_stats(0, virtual=9))
        assert len(problems) == 1
        assert "cp.virtual_blocks" in problems[0]
        assert "9" in problems[0] and "8" in problems[0]

    def test_evicted_records_still_reconcile(self):
        # The check reads the running totals, not the ring: a CP whose
        # records (sentinel included) were evicted still reconciles.
        t = obs.install(ring_capacity=2)
        trace_cp(0)
        assert complete_cps(t.records()) == set() and t.dropped
        assert reconcile_current_cp(t, matching_stats(0)) == []

    def test_reconciled_counter_map_covers_block_accounting(self):
        # The contract: traced block counts == counted.
        assert RECONCILED_COUNTERS["cp.virtual_blocks"] == "virtual_blocks"
        assert RECONCILED_COUNTERS["cp.physical_blocks"] == "physical_blocks"
        assert set(RECONCILED_COUNTERS.values()) <= {
            f.name for f in CPStats.__dataclass_fields__.values()
        }


class TestReconcileCurrentCP:
    def test_matches_running_totals(self):
        t = obs.install()
        trace_cp(4)
        assert reconcile_current_cp(t, matching_stats(4)) == []

    def test_detects_drift(self):
        t = obs.install()
        trace_cp(4)
        problems = reconcile_current_cp(t, matching_stats(4, physical=7))
        assert len(problems) == 1 and "cp.physical_blocks" in problems[0]

    def test_cp_index_mismatch_returns_empty(self):
        t = obs.install()
        trace_cp(4)
        assert reconcile_current_cp(t, matching_stats(3, virtual=0)) == []
