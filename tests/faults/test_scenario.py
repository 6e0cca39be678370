"""End-to-end chaos scenario: inject, run CPs, scrub, recover, report."""

from __future__ import annotations

import pytest

from repro.faults import ChaosScenario, default_scenario, run_chaos
from repro.faults.injector import FaultKind, ScheduledFault


@pytest.fixture(scope="module")
def quick_run():
    return run_chaos(default_scenario(seed=1234, quick=True))


class TestAcceptance:
    def test_all_cps_complete_with_zero_failed_allocations(self, quick_run):
        metrics, _sim = quick_run
        assert metrics.cps_completed == default_scenario(quick=True).n_cps
        assert metrics.failed_allocations == 0

    def test_corrupt_topaa_page_fell_back(self, quick_run):
        metrics, _sim = quick_run
        assert metrics.mount_fallbacks == {"vol:volB": "bad-crc"}

    def test_silent_damage_detected_and_repaired(self, quick_run):
        metrics, _sim = quick_run
        assert metrics.findings_detected.get("leaked", 0) >= 48
        assert metrics.findings_detected.get("corrupt", 0) >= 48
        assert metrics.findings_repaired == metrics.findings_detected
        assert "vol:volA" in metrics.escalations
        assert "group:0" in metrics.escalations

    def test_degraded_raid_charged(self, quick_run):
        metrics, sim = quick_run
        assert metrics.disk_failures == 1
        assert metrics.disks_replaced == 1
        assert metrics.degraded_stripes > 0
        assert metrics.reconstruction_reads > 0
        assert metrics.blocks_reconstructed > 0
        assert (
            sum(s.reconstruction_reads for s in sim.metrics.cps)
            == metrics.reconstruction_reads
        )

    def test_degraded_allocation_served_from_bitmap_walk(self, quick_run):
        metrics, _sim = quick_run
        assert metrics.degraded_cps > 0
        assert metrics.degraded_selects > 0
        assert metrics.walk_bits_scanned > 0
        assert metrics.rebuild_blocks_read > 0

    def test_final_state_clean_and_consistent(self, quick_run):
        metrics, sim = quick_run
        assert metrics.final_clean
        # No file system left degraded.
        from repro.faults import degraded_instances

        assert degraded_instances(sim) == []
        sim.verify_consistency()


class TestDeterminism:
    def test_same_seed_identical_recovery_metrics(self):
        m1, _ = run_chaos(default_scenario(seed=77, quick=True))
        m2, _ = run_chaos(default_scenario(seed=77, quick=True))
        assert m1 == m2

    def test_different_seed_differs(self):
        m1, _ = run_chaos(default_scenario(seed=77, quick=True))
        m2, _ = run_chaos(default_scenario(seed=78, quick=True))
        assert m1 != m2


class TestCustomScenario:
    def test_no_faults_is_a_clean_run(self):
        sc = ChaosScenario(seed=5, n_cps=3, ops_per_cp=512, warmup_cps=1)
        metrics, _sim = run_chaos(sc)
        assert metrics.cps_completed == 3
        assert metrics.failed_allocations == 0
        assert metrics.mount_fallbacks == {}
        assert metrics.escalations == []
        assert metrics.final_clean

    def test_armed_read_faults_flow_through_schedule(self):
        sc = ChaosScenario(seed=5, n_cps=4, ops_per_cp=512, warmup_cps=1)
        sc.faults = [
            ScheduledFault(0, "vol:volA", FaultKind.TOPAA_CORRUPT, count=4),
            ScheduledFault(2, "group:0", FaultKind.TORN_WRITE, count=16),
        ]
        metrics, _sim = run_chaos(sc)
        assert metrics.failed_allocations == 0
        assert "vol:volA" in metrics.mount_fallbacks
        assert metrics.escalations == ["group:0"]
        assert metrics.final_clean


class TestCLI:
    def test_faults_command_passes(self, capsys):
        from repro.cli import main

        rc = main(["faults", "--quick", "--seed", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[holds] zero failed allocations: 0 (invariant)" in out
        assert "[holds] every CP completed: 8/8 (invariant)" in out
        assert "[holds] final scrub clean: True (invariant)" in out
        assert "FAILS" not in out

    def test_faults_command_is_deterministic_per_seed(self, capsys):
        from repro.cli import main

        outs = []
        for seed in ("7", "7", "8"):
            assert main(["faults", "--quick", "--seed", seed]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] != outs[2]
