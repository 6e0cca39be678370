"""The experiment table is the only registry: it is complete, every
consumer (runner, ``repro figN``/``all``/``bench``) is generated from
it, and its paper claims gate full-size canonical-seed runs."""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

from repro.bench import runner
from repro.bench.experiments import EXPERIMENTS, Claim, Experiment, late_bound
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
            assert callable(exp.run if callable(exp.run) else late_bound(exp.run))

    def test_every_figure_has_tables_and_claims(self):
        # The checked-in baseline doubles as a result set read back
        # from disk: claims are pure functions of the document.
        claims = runner.evaluate_claims(json.loads(BASELINE.read_text()))
        figures = [name for name, exp in EXPERIMENTS.items() if exp.tables]
        assert figures == ["fig6", "fig7", "fig8", "fig9", "fig10"]
        for name in figures:
            assert len(claims[name]) >= 1
            assert all(isinstance(c, Claim) for c in claims[name])

    def test_cli_names_are_the_tables_names(self, capsys):
        commands = re.search(r"\{([\w,]+)\}", _help(capsys)).group(1).split(",")
        figures = [name for name, exp in EXPERIMENTS.items() if exp.tables]
        assert [c for c in commands if c.startswith("fig")] == figures
        choices = re.search(
            r"--experiments \[\{([\w,]+)\}", _help(capsys, "bench")
        ).group(1)
        assert choices.split(",") == list(EXPERIMENTS)

    def test_a_new_entry_needs_no_other_edit(self, monkeypatch, capsys, tmp_path):
        for name in [n for n, exp in EXPERIMENTS.items() if exp.tables]:
            monkeypatch.delitem(EXPERIMENTS, name)  # keeps `repro all` cheap
        monkeypatch.setitem(EXPERIMENTS, "fig11", _throwaway("fig11"))

        assert main(["fig11"]) == 0
        out = capsys.readouterr().out
        assert "Figure fig11: a, bb" in out and "[holds] fig11 claim" in out

        assert main(["all"]) == 0
        assert "== fig11" in capsys.readouterr().out

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


def _fig8_document(*, large_wa: float, quick: bool) -> dict:
    """A hand-built fig8 results document (paper-shaped unless
    ``large_wa`` is pushed up towards the small AA's)."""
    metrics = {
        "HDD-sized AA (4k stripes)": dict(
            cpu_us_per_op=230.0, device_us_per_op=17.5, capacity_ops=57_000.0,
            write_amplification=10.8,
        ),
        "Large AA (2 erase units)": dict(
            cpu_us_per_op=232.0, device_us_per_op=6.0, capacity_ops=86_000.0,
            write_amplification=large_wa,
        ),
    }
    units = {
        f"fig8/{unit}": {
            "experiment": "fig8", "unit": unit, "seed": 99, "quick": quick,
            "metrics": m, "timing": {"wall_s": 0.0},
        }
        for unit, m in metrics.items()
    }
    return {
        "quick": quick, "seed": None, "units": units,
        "timing": {"units": 2, "total_wall_s": 0.0, "units_per_s": 0.0},
    }


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
