"""Smoke tests for the experiment table's figure entries (quick mode)."""

from __future__ import annotations

from repro.bench.experiments import EXPERIMENTS
from repro.bench.runner import UnitSpec, run_unit


def _run_quick(name: str) -> dict[str, dict]:
    exp = EXPERIMENTS[name]
    return {unit: run_unit(UnitSpec(name, unit, True, exp.seed)) for unit in exp.units}


class TestQuickRunners:
    def test_fig9_quick_shape(self):
        exp = EXPERIMENTS["fig9"]
        results = _run_quick("fig9")
        small = results["HDD-sized AA (4k stripes)"]["metrics"]
        aligned = results["SMR AA (zone + AZCS aligned)"]["metrics"]
        assert small["rewrites"] > aligned["rewrites"]
        assert aligned["drive_mbps"] > small["drive_mbps"]
        tables = exp.tables(results)
        assert len(tables) == 2
        assert "Figure 9" in tables[0]
        # Figure 9's claims hold even at quick size.
        assert all(claim.holds for claim in exp.claims(results))

    def test_fig10_quick_shape(self):
        exp = EXPERIMENTS["fig10"]
        results = _run_quick("fig10")

        def blocks_read(unit: str, path: str) -> list[int]:
            rows = results[unit]["metrics"]["rows"]
            return [r[2] for r in rows if r[1] == path]

        # TopAA flat in size, walk linear (points: 4x and 16x).
        topaa, walk = blocks_read("size", "TopAA"), blocks_read("size", "no TopAA")
        assert topaa[0] == topaa[-1]
        assert walk[-1] > 2 * walk[0]
        assert blocks_read("count", "no TopAA")[-1] > 10 * blocks_read("count", "TopAA")[-1]
        # The wall-clock column rides in timing, one entry per row.
        for res in results.values():
            assert len(res["timing"]["build_wall_ms"]) == len(res["metrics"]["rows"])
        tables = exp.tables(results)
        assert "Figure 10(A)" in tables[0]
        assert "Figure 10(B)" in tables[1]
        by_text = {claim.text: claim for claim in exp.claims(results)}
        assert by_text["(A) TopAA mount block reads are flat in volume size"].holds
