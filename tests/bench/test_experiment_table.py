"""The experiment table is the only registry: it is complete, every
consumer (runner, ``repro <row>``/``all``/``bench``) is generated from
it, its invariants gate every run and its paper-shape claims full-size
canonical-seed runs, and its drill rows are the subsystems' own drivers
at the same size and seed."""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

from repro.bench import runner
from repro.bench.experiments import EXPERIMENTS, Claim, Experiment
from repro.cli import main

BASELINE = Path(__file__).resolve().parents[2] / "benchmarks/baselines/bench_quick.json"


def _help(capsys, *argv: str) -> str:
    with pytest.raises(SystemExit):
        main([*argv, "--help"])
    return capsys.readouterr().out


def _throwaway(name: str, *, holds: bool = True, serial: bool = False) -> Experiment:
    """A table entry cheap enough to run in a unit test."""

    def run(unit, *, quick, seed):
        return {"metrics": {"value": seed + len(unit), "pid": os.getpid()}}

    return Experiment(
        name, f"throw-away {name}", 5, ("a", "bb"), run,
        tables=lambda results: [f"Figure {name}: " + ", ".join(results)],
        claims=lambda results: [Claim(f"{name} claim", "1", "1", holds)],
        serial=serial,
    )


class TestTableCompleteness:
    def test_every_experiment_has_seed_units_and_a_resolvable_run(self):
        for name, exp in EXPERIMENTS.items():
            assert exp.name == name
            assert isinstance(exp.seed, int)
            assert exp.units and len(set(exp.units)) == len(exp.units)
            assert callable(exp.run)

    def test_every_figure_has_tables_and_claims(self):
        # Every row, that is: the figures were the first rows to have them.
        # The checked-in baseline doubles as a result set read back
        # from disk: tables and claims are pure functions of the document.
        doc = json.loads(BASELINE.read_text())
        claims = runner.evaluate_claims(doc)
        assert list(EXPERIMENTS)[:5] == ["fig6", "fig7", "fig8", "fig9", "fig10"]
        for name, exp in EXPERIMENTS.items():
            assert len(claims[name]) >= 1
            assert all(isinstance(c, Claim) for c in claims[name])
            results = {unit: doc["units"][f"{name}/{unit}"] for unit in exp.units}
            tables = exp.tables(results)
            assert tables and all(isinstance(t, str) and t for t in tables)

    def test_tables_and_claims_cope_with_a_subset_of_the_row(self):
        doc = json.loads(BASELINE.read_text())
        for name, exp in EXPERIMENTS.items():
            first = {exp.units[0]: doc["units"][f"{name}/{exp.units[0]}"]}
            assert exp.tables(first)
            assert all(isinstance(c, Claim) for c in exp.claims(first))

    def test_cli_names_are_the_tables_names(self, capsys):
        commands = re.search(r"\{([\w,]+)\}", _help(capsys)).group(1).split(",")
        tools = ["info", "bench", "trace", "lint"]
        assert [c for c in commands if c not in tools] == list(EXPERIMENTS)
        choices = re.search(
            r"--experiments \[\{([\w,]+)\}", _help(capsys, "bench")
        ).group(1)
        assert choices.split(",") == list(EXPERIMENTS)

    @pytest.mark.parametrize("row", list(EXPERIMENTS))
    def test_a_row_command_rejects_an_unknown_unit(self, row, capsys):
        with pytest.raises(SystemExit) as exc:
            main([row, "no-such-unit", "--quick"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown unit" in err and "no-such-unit" in err

    def test_a_new_entry_needs_no_other_edit(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setitem(EXPERIMENTS, "fig11", _throwaway("fig11"))

        assert main(["fig11"]) == 0
        out = capsys.readouterr().out
        assert "Figure fig11: a, bb" in out and "[holds] fig11 claim" in out
        assert main(["fig11", "bb", "--seed", "9"]) == 0
        assert "Figure fig11: bb" in capsys.readouterr().out

        path = tmp_path / "fig11.json"
        assert main(["bench", "--experiments", "fig11", "--trajectory", str(path)]) == 0
        assert "fig11 paper claims:" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert set(doc["units"]) == {"fig11/a", "fig11/bb"}
        assert doc["units"]["fig11/bb"]["seed"] == 5

    def test_serial_entries_run_in_process_even_with_a_pool(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "solo", _throwaway("solo", serial=True))
        doc = runner.run_bench(workers=2, experiments=["solo"])
        pids = {res["metrics"]["pid"] for res in doc["units"].values()}
        assert pids == {os.getpid()}


def _document(experiment: str, metrics: dict[str, dict], *, quick: bool) -> dict:
    """A hand-built results document of one row."""
    units = {
        f"{experiment}/{unit}": {
            "experiment": experiment, "unit": unit, "seed": EXPERIMENTS[experiment].seed,
            "quick": quick, "metrics": m, "timing": {"wall_s": 0.0},
        }
        for unit, m in metrics.items()
    }
    return {
        "quick": quick, "seed": None, "units": units,
        "timing": {"units": len(units), "total_wall_s": 0.0, "units_per_s": 0.0},
    }


def _fig8_document(*, large_wa: float, quick: bool) -> dict:
    """Paper-shaped unless ``large_wa`` is pushed up towards the small AA's."""
    return _document("fig8", {
        "HDD-sized AA (4k stripes)": dict(
            cpu_us_per_op=230.0, device_us_per_op=17.5, capacity_ops=57_000.0,
            write_amplification=10.8, curve=[[5_000.0, 5_000.0, 0.3], [9_000.0, 5_500.0, 90.0]],
        ),
        "Large AA (2 erase units)": dict(
            cpu_us_per_op=232.0, device_us_per_op=6.0, capacity_ops=86_000.0,
            write_amplification=large_wa, curve=[[5_000.0, 5_000.0, 0.2], [9_000.0, 9_000.0, 0.3]],
        ),
    }, quick=quick)


class TestClaims:
    def test_a_violated_claim_does_not_hold(self):
        good = runner.evaluate_claims(_fig8_document(large_wa=3.7, quick=False))
        assert all(c.holds for c in good["fig8"])
        bad = runner.evaluate_claims(_fig8_document(large_wa=9.0, quick=False))
        assert [c.text for c in bad["fig8"] if not c.holds] == [
            "WA ratio small/large > 1.25"
        ]

    @pytest.mark.parametrize("quick, status", [(False, 1), (True, 0)])
    def test_bench_gates_claims_on_full_size_runs_only(
        self, quick, status, monkeypatch, capsys, tmp_path
    ):
        doc = _fig8_document(large_wa=9.0, quick=quick)
        monkeypatch.setattr(runner, "run_bench", lambda **kwargs: doc)
        argv = ["bench", "--experiments", "fig8", "--trajectory", str(tmp_path / "t.json")]
        assert main(argv + (["--quick"] if quick else [])) == status
        out = capsys.readouterr().out
        assert "[FAILS] WA ratio small/large > 1.25: 1.20x (paper: ~2x)" in out
        if quick:
            assert "informational" in out
        else:
            assert "paper claims check FAILED (1 claim(s)):" in out
            assert "fig8: WA ratio small/large > 1.25" in out

    def test_an_invariant_gates_a_quick_run_too(self, monkeypatch, capsys, tmp_path):
        doc = _document("faults", {"scripted": dict(
            failed_allocations=1, cps_completed=7, n_cps=8, final_clean=True,
        )}, quick=True)
        monkeypatch.setattr(runner, "run_bench", lambda **kwargs: doc)
        argv = ["bench", "--quick", "--experiments", "faults",
                "--trajectory", str(tmp_path / "t.json")]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "[FAILS] zero failed allocations: 1 (invariant)" in out
        assert "paper claims check FAILED (2 claim(s)):" in out
        assert "faults: zero failed allocations" in out
        assert "faults: every CP completed" in out

    def test_a_row_command_applies_the_same_gate(self, monkeypatch, capsys):
        def run(unit, *, quick, seed):
            return {"metrics": {}}

        failing = Experiment(
            "drill", "throw-away drill", 1, ("u",), run,
            tables=lambda results: [],
            claims=lambda results: [Claim("shape", "1", "2", False),
                                    Claim("safety", "", "broken", False, invariant=True)],
        )
        monkeypatch.setitem(EXPERIMENTS, "drill", failing)
        assert main(["drill", "--quick"]) == 1
        out = capsys.readouterr().out
        assert "paper claims check FAILED (1 claim(s)):\n  drill: safety" in out
        assert main(["drill"]) == 1
        assert "paper claims check FAILED (2 claim(s)):" in capsys.readouterr().out


class TestDrillRowsAreTheDriversThemselves:
    """A drill row adds nothing to its schedule run by the one driver:
    same subject, same seed, same report."""

    @staticmethod
    def _metrics(row: str, unit: str, seed: int) -> dict:
        return runner.run_unit(runner.UnitSpec(row, unit, True, seed))["metrics"]

    @staticmethod
    def _json(payload) -> dict:
        return json.loads(json.dumps(payload))

    def test_crash_digests(self):
        from repro.bench.drills import crash_metrics, crash_schedule, crash_subject
        from repro.drill import CrashAt, run_drill

        direct = {}
        sizes = {"aging": 1, "noisy-neighbor": 1, "under-load": 2, "snapshot": 1}
        for unit, steps in sizes.items():
            log = run_drill(
                crash_subject(unit, 3), crash_schedule(unit, steps), steps, seed=3
            )
            direct[unit] = log
            m = self._metrics("crash", unit, 3)
            assert m == self._json(crash_metrics(unit, 3, log))
            assert m["violations"] == []
            assert all(o.ok for found in log.evidence(CrashAt) for o in found)
        outcomes = [o for found in direct["aging"].evidence(CrashAt) for o in found]
        aging = self._metrics("crash", "aging", 3)
        assert aging["rows"] == [o.row() for o in outcomes]
        assert aging["crash_points"] == len(outcomes)
        # The snapshot sweep is the aging sweep over a pinned volume:
        # same edges, a different committed image.
        snapshot = self._metrics("crash", "snapshot", 3)
        assert snapshot["crash_points"] == aging["crash_points"]
        assert snapshot["digest"] != aging["digest"]

    def test_faults_and_disk_failure_metrics(self):
        from repro.bench.drills import (
            disk_failure_metrics,
            disk_failure_schedule,
            recovery_metrics,
            scripted_schedule,
            scripted_subject,
            traffic_engine,
            transient_schedule,
        )
        from repro.drill import run_drill

        for unit, schedule in (("scripted", scripted_schedule), ("transient", transient_schedule)):
            subject = scripted_subject(7, ops_per_cp=1024, warmup_cps=3)
            log = run_drill(subject, schedule(8), 8, seed=7)
            row = self._metrics("faults", unit, 7)
            expected = {**self._json(recovery_metrics(log, subject.sim)), "n_cps": 8}
            assert {k: row[k] for k in expected} == expected
            assert (set(row) == set(expected)) == (unit == "scripted")
        engine = traffic_engine("noisy-neighbor", 2, 65_536, seed=7)
        log = run_drill(engine, disk_failure_schedule(30), 30)
        assert self._metrics("traffic", "disk-failure", 7) == self._json(
            disk_failure_metrics(log, engine)
        )

    def test_cluster_rebalance_and_chaos_payloads(self):
        from repro.bench.drills import CHAOS_SCHEDULE, chaos_fleet, chaos_metrics
        from repro.cluster import run_rebalance
        from repro.drill import run_drill

        assert self._metrics("cluster", "rebalance", 5) == self._json(run_rebalance(seed=5))
        fleet = chaos_fleet(5)
        assert self._metrics("cluster", "chaos", 5) == self._json(
            chaos_metrics(fleet, run_drill(fleet, CHAOS_SCHEDULE, 2))
        )
