"""Tests for the command-line interface and bench harness helpers."""

from __future__ import annotations

import os
import re
import time

import numpy as np
import pytest

from repro.bench import ConfigResult, fmt_table
from repro.cli import main


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

    def test_quickstart(self, capsys):
        assert main(["quickstart"]) == 0
        assert capsys.readouterr().out.rstrip().endswith("consistency verified")

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


def _python_part(seconds: float) -> int:
    """Pure-Python arithmetic for ``seconds`` of wall time."""
    end, total = time.perf_counter() + seconds, 0
    while time.perf_counter() < end:
        for i in range(1000):
            total += i * i
    return total


def _numpy_part(a):
    return np.sort(a)


def test_profile_lines_shares_follow_wall_time(capsys):
    """``profile --lines`` weights each sample by the wall time it
    stands for, so a NumPy call that drops the GIL and a pure-Python
    loop of equal ``perf_counter`` time get equal shares."""
    from repro.cli import _sample_stacks

    a = np.random.default_rng(0).random(2_000_000)

    def run() -> None:
        for _ in range(10):
            t0 = time.perf_counter()
            _numpy_part(a)
            _python_part(time.perf_counter() - t0)

    _sample_stacks(run, 20, root=os.path.dirname(os.path.abspath(__file__)) + os.sep)
    functions = capsys.readouterr().out.split("functions (inclusive)")[1]
    shares = {
        name: float(pct) / 100
        for pct, name in re.findall(r"([\d.]+)%\s+test_cli\.py:(\w+)", functions)
    }
    assert abs(shares["_python_part"] - 0.5) <= 0.10, shares
    assert abs(shares["_numpy_part"] - 0.5) <= 0.10, shares
