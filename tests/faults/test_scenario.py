"""End-to-end fault drill: inject, run CPs, scrub, recover, report."""

from __future__ import annotations

import pytest

from repro.bench.drills import recovery_metrics, scripted_schedule, scripted_subject
from repro.drill import CorruptTopAA, FlipBits, Mount, Scrub, run_drill

QUICK_STEPS = 8


def scripted(seed: int, schedule=None, *, steps=QUICK_STEPS, ops_per_cp=1024, warmup_cps=3):
    """The quick ``faults/scripted`` drill (or ``schedule`` on a smaller
    subject): ``(metrics, log, sim)``."""
    subject = scripted_subject(seed, ops_per_cp=ops_per_cp, warmup_cps=warmup_cps)
    if schedule is None:
        schedule = scripted_schedule(steps)
    log = run_drill(subject, schedule, steps, seed=seed)
    return recovery_metrics(log, subject.sim), log, subject.sim


@pytest.fixture(scope="module")
def quick_run():
    return scripted(1234)


class TestAcceptance:
    def test_all_cps_complete_with_zero_failed_allocations(self, quick_run):
        metrics, log, _sim = quick_run
        assert metrics["cps_completed"] == log.steps == QUICK_STEPS
        assert metrics["failed_allocations"] == log.failed_allocations == 0

    def test_corrupt_topaa_page_fell_back(self, quick_run):
        metrics, _log, _sim = quick_run
        assert metrics["mount_fallbacks"] == {"vol:volB": "bad-crc"}

    def test_silent_damage_detected_and_repaired(self, quick_run):
        metrics, log, _sim = quick_run
        assert metrics["findings_detected"].get("leaked", 0) >= 48
        assert metrics["findings_detected"].get("corrupt", 0) >= 48
        assert metrics["findings_repaired"] == metrics["findings_detected"]
        assert "vol:volA" in metrics["escalations"]
        assert "group:0" in metrics["escalations"]
        (scrub,) = log.evidence(Scrub)
        assert scrub["repaired"] == scrub["detected"]
        assert scrub["escalated"] == metrics["escalations"]

    def test_degraded_raid_charged(self, quick_run):
        metrics, log, sim = quick_run
        assert metrics["disk_failures"] == 1
        assert metrics["disks_replaced"] == 1
        assert metrics["degraded_stripes"] > 0
        assert metrics["reconstruction_reads"] > 0
        assert metrics["blocks_reconstructed"] > 0
        # The driver sums what the steps' CPs report; warm-up CPs ran
        # on healthy disks, so the sim's whole history says the same.
        assert (
            sum(s.reconstruction_reads for s in sim.metrics.cps)
            == log.reconstruction_reads
            == metrics["reconstruction_reads"]
        )

    def test_degraded_allocation_served_from_bitmap_walk(self, quick_run):
        metrics, log, _sim = quick_run
        assert metrics["degraded_cps"] == log.degraded_steps > 0
        assert metrics["degraded_selects"] > 0
        assert metrics["walk_bits_scanned"] > 0
        assert metrics["rebuild_blocks_read"] > 0

    def test_final_state_clean_and_consistent(self, quick_run):
        metrics, log, sim = quick_run
        assert metrics["final_clean"]
        assert log.iron_findings == [] and log.audit_violations == []
        assert log.audit_checks > 0
        # No file system left degraded.
        from repro.faults import degraded_instances

        assert degraded_instances(sim) == []
        sim.verify_consistency()


class TestDeterminism:
    def test_same_seed_identical_recovery_metrics(self):
        m1, log1, _ = scripted(77)
        m2, log2, _ = scripted(77)
        assert m1 == m2
        assert log1 == log2

    def test_different_seed_differs(self):
        m1, log1, _ = scripted(77)
        m2, log2, _ = scripted(78)
        assert m1 != m2
        assert log1 != log2


class TestCustomScenario:
    def test_no_faults_is_a_clean_run(self):
        metrics, log, _sim = scripted(
            5, ((0, Mount()),), steps=3, ops_per_cp=512, warmup_cps=1
        )
        assert metrics["cps_completed"] == 3
        assert metrics["failed_allocations"] == 0
        assert metrics["mount_fallbacks"] == {}
        assert metrics["escalations"] == []
        assert metrics["final_clean"]
        assert [type(event) for _, event, _ in log.fired] == [Mount]

    def test_armed_read_faults_flow_through_schedule(self):
        schedule = (
            (0, CorruptTopAA("vol:volA", 4)),
            (0, Mount()),
            (1, FlipBits("group:0", 16, "clear")),
            (1, Scrub()),
        )
        metrics, _log, _sim = scripted(
            5, schedule, steps=4, ops_per_cp=512, warmup_cps=1
        )
        assert metrics["failed_allocations"] == 0
        assert "vol:volA" in metrics["mount_fallbacks"]
        assert metrics["escalations"] == ["group:0"]
        assert metrics["final_clean"]


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
