"""Tests for the command-line interface and bench harness helpers."""

from __future__ import annotations

import json
import re

import pytest

from repro import obs
from repro.bench import ConfigResult, fmt_table
from repro.cli import main
from repro.fs.cp import CPEngine


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ICPP 2018" in out
        assert "BLOCK_SIZE" in out

    def test_info_lists_every_registered_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        registered = re.search(r"\{([\w,]+)\}", capsys.readouterr().out).group(1)
        assert {"trace", "cluster", "tier", "lint"} <= set(registered.split(","))
        main(["info"])
        listed = capsys.readouterr().out.rsplit("commands: ", 1)[1].split()
        assert listed == registered.split(",")

    def test_fig10_quick(self, capsys):
        assert main(["fig10", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10(A)" in out
        assert "Figure 10(B)" in out
        assert "TopAA" in out

    def test_fig9_quick(self, capsys):
        assert main(["fig9", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "drive-throughput gain" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-command"])

    def test_lint_clean_tree(self, capsys):
        assert main(["lint"]) == 0
        assert "simlint: clean" in capsys.readouterr().out

    def test_lint_reports_violations(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n", encoding="utf-8")
        assert main(["lint", str(bad)]) == 1
        assert "D101" in capsys.readouterr().out

    def test_traffic_quick(self, capsys):
        # --quick is the table's two-tenant size; --seed 7 its canonical seed.
        assert main(["traffic", "noisy-neighbor", "--quick", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "noisy-neighbor: tenants" in out
        assert "t0-aggressor" in out
        assert "t1-victim" in out
        assert "p99_ms" in out
        assert "calibrated_capacity_ops" in out
        assert "uniform" not in out  # only the unit asked for ran

    def test_traffic_disk_failure_quick(self, capsys):
        assert main(["traffic", "disk-failure", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "disk-failure: phase_p99_ms" in out
        assert "[holds] zero failed allocations while a data disk fails" in out

    def test_traffic_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit) as exc:
            main(["traffic", "bogus"])
        assert exc.value.code == 2

    def test_audit_quick(self, capsys):
        assert main(["audit", "--quick", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "cps_audited" in out
        assert "[holds] zero audit violations: 0 (invariant)" in out


class TestTrace:
    @pytest.mark.parametrize("row, unit", [("traffic", "noisy-neighbor"), ("crash", "aging")])
    def test_writes_a_loadable_chrome_trace(self, row, unit, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", row, unit, "--quick", "--out", str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        assert {e["ph"] for e in events} == {"X", "C"}
        assert any(e["name"] == "cp.boundary" for e in events)
        text = capsys.readouterr().out
        assert "    cp.boundary" in text  # the last intact CP's span tree
        assert "trace reconciliation OK" in text

    def test_an_over_counting_boundary_fails_the_auditors_check(self, monkeypatch, tmp_path,
                                                                capsys):
        boundary = CPEngine._trace_boundary

        def over_count(store_report, vol_reports) -> None:
            boundary(store_report, vol_reports)
            obs.count("cp.physical_blocks", 1, where="store")

        monkeypatch.setattr(CPEngine, "_trace_boundary", staticmethod(over_count))
        out = tmp_path / "trace.json"
        assert main(["trace", "traffic", "noisy-neighbor", "--quick", "--out", str(out)]) == 1
        text = capsys.readouterr().out
        assert "trace reconciliation FAILED" in text and "trace-vs-stats" in text
        assert json.loads(out.read_text())["traceEvents"]

    def test_an_unknown_unit_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "traffic", "bogus"])
        assert exc.value.code == 2


class TestHarness:
    def test_fmt_table_alignment(self):
        t = fmt_table(["a", "bee"], [[1, 2.5], [333, 0.001]], title="T")
        lines = t.splitlines()
        assert lines[0] == "T"
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows equal width

    def test_fmt_table_thousands(self):
        t = fmt_table(["x"], [[123456.0]])
        assert "123,456" in t

    def test_config_result_capacity(self):
        r = ConfigResult(
            label="x", cpu_us_per_op=200.0, device_us_per_op=20.0,
            agg_selected_free=0, vol_selected_free=0, aggregate_free=0,
            write_amplification=1, metafile_blocks_per_op=0,
            full_stripe_fraction=0, mean_chain_length=0,
        )
        # 20 cores / 200us = 100k; device 1e6/20 = 50k -> device-bound.
        assert r.capacity_ops == pytest.approx(50_000)

