"""Tests for the parallel benchmark runner: unit planning from the
experiment table, process-pool vs serial determinism (the JSON
documents must be byte-identical once timing/host fields are stripped),
the one persisted results document, and the baseline regression gate."""

from __future__ import annotations

import json

import pytest

from repro.bench import experiments
from repro.bench.experiments import EXPERIMENTS
from repro.bench.runner import (
    SCHEMA,
    UnitSpec,
    compare_to_baseline,
    plan_units,
    run_bench,
    run_unit,
    strip_timing,
    write_results,
)

#: Small fast subset used for the expensive serial-vs-parallel check
#: (one figure, one drill whose payload carries a digest and flags).
FAST_EXPERIMENTS = ["fig9", "tier"]


class TestPlanning:
    def test_covers_every_experiment_by_default(self):
        units = plan_units(quick=True)
        assert {u.experiment for u in units} == set(EXPERIMENTS)

    def test_plan_is_deterministic(self):
        assert plan_units(quick=True, seed=9) == plan_units(quick=True, seed=9)

    def test_canonical_seeds_match_figures(self):
        by_key = {u.key: u for u in plan_units(quick=True)}
        assert by_key["fig6/both caches"].seed == 42
        assert by_key["fig7/oltp"].seed == 24
        assert by_key["fig8/HDD-sized AA (4k stripes)"].seed == 99

    def test_base_seed_derives_distinct_per_unit_seeds(self):
        units = plan_units(quick=True, seed=7, experiments=["fig6"])
        seeds = [u.seed for u in units]
        assert len(set(seeds)) == len(seeds)
        again = plan_units(quick=True, seed=7, experiments=["fig6"])
        assert seeds == [u.seed for u in again]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            plan_units(experiments=["fig99"])


class TestDeterminism:
    def test_parallel_json_identical_to_serial_modulo_timing(self, tmp_path):
        serial = run_bench(quick=True, workers=1, experiments=FAST_EXPERIMENTS)
        parallel = run_bench(quick=True, workers=2, experiments=FAST_EXPERIMENTS)
        a = json.dumps(strip_timing(serial), indent=2, sort_keys=True)
        b = json.dumps(strip_timing(parallel), indent=2, sort_keys=True)
        assert a == b
        # The stripped documents really dropped the varying fields...
        assert "wall_s" not in a and '"host"' not in a
        # ...and the full documents carry them.
        assert "wall_s" in json.dumps(serial)

        # The one persisted document round-trips.
        write_results(serial, str(tmp_path / "serial.json"))
        persisted = json.loads((tmp_path / "serial.json").read_text())
        assert persisted == json.loads(json.dumps(serial))

        # Regression gate: identical runs have no drifted metrics, and
        # a perturbed metric is caught.
        assert compare_to_baseline(parallel, serial) == []
        mutated = json.loads(json.dumps(serial))
        unit = mutated["units"]["fig9/HDD-sized AA (4k stripes)"]
        unit["metrics"]["drive_mbps"] *= 1.01
        problems = compare_to_baseline(mutated, serial)
        assert problems and "drive_mbps" in problems[0]

    def test_trajectory_document_shape(self, tmp_path):
        doc = run_bench(quick=True, workers=1, experiments=["fig9"])
        assert doc["schema"] == SCHEMA
        assert doc["quick"] is True
        assert set(doc["units"]) == {
            "fig9/HDD-sized AA (4k stripes)",
            "fig9/SMR AA (zone + AZCS aligned)",
        }
        for res in doc["units"].values():
            assert res["timing"]["wall_s"] > 0
            assert res["metrics"]["drive_mbps"] > 0
        path = write_results(doc, str(tmp_path / "BENCH.json"))
        # One run, one artifact.
        assert [str(p) for p in tmp_path.iterdir()] == [path]
        assert json.loads((tmp_path / "BENCH.json").read_text())["schema"] == SCHEMA


class TestUnits:
    def test_audited_unit_runs_the_invariant_auditor(self):
        res = run_unit(UnitSpec("fig9", "HDD-sized AA (4k stripes)", True, 3, True))
        assert res["audited"] is True
        assert res["metrics"]["blocks"] > 0

    def test_a_units_trace_does_not_depend_on_the_process_warmup(self, monkeypatch):
        # fig10 warms each process up once, in whichever fig10 unit runs first.
        monkeypatch.setattr(experiments, "_fig10_warmed", False)
        spec = UnitSpec("fig10", "count", True, EXPERIMENTS["fig10"].seed, trace=True)
        assert run_unit(spec)["trace_records"] == run_unit(spec)["trace_records"]


class TestBaselineGate:
    def test_missing_metric_reported(self):
        base = {"units": {"x": {"metrics": {"a": 1.0, "b": 2.0}}}}
        cur = {"units": {"x": {"metrics": {"a": 1.0}}}}
        problems = compare_to_baseline(cur, base)
        assert problems == ["missing metric units.x.metrics.b (baseline 2)"]

    def test_rtol_allows_small_drift(self):
        base = {"units": {"x": {"metrics": {"a": 100.0}}}}
        cur = {"units": {"x": {"metrics": {"a": 100.0 + 1e-7}}}}
        assert compare_to_baseline(cur, base, rtol=1e-6) == []
        assert compare_to_baseline(cur, base, rtol=1e-12) != []

    def test_a_changed_digest_or_a_flipped_flag_is_reported(self):
        base = {"units": {"tier/tiered": {"metrics": {
            "digest": "20dc9e88e774ede5", "audit_ok": True,
            "placements": {"oltp0": "flash"}, "stranded": [],
        }}}}
        assert compare_to_baseline(json.loads(json.dumps(base)), base) == []
        prefix = "units.tier/tiered.metrics"
        for key, changed, problem in [
            ("digest", "20dc9e88e774ede6",
             f"{prefix}.digest: baseline '20dc9e88e774ede5' -> current '20dc9e88e774ede6'"),
            ("audit_ok", False, f"{prefix}.audit_ok: baseline True -> current False"),
            ("placements", {"oltp0": "smr"},
             f"{prefix}.placements.oltp0: baseline 'flash' -> current 'smr'"),
            ("stranded", ["vol0"], f"missing metric {prefix}.stranded (baseline [])"),
        ]:
            cur = json.loads(json.dumps(base))
            cur["units"]["tier/tiered"]["metrics"][key] = changed
            assert compare_to_baseline(cur, base) == [problem]

    def test_how_a_unit_was_instrumented_is_not_a_metric(self):
        base = {"units": {"x": {"audited": True, "traced": False, "metrics": {"a": 1}}}}
        cur = {"units": {"x": {"audited": False, "traced": True, "trace_records": 9,
                               "metrics": {"a": 1}}}}
        assert compare_to_baseline(cur, base) == []
