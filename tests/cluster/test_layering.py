"""The cluster package is the top *simulation* layer of the simlint
DAG: it may import every layer below it, and none of them may import
it.  The one consumer above it is ``bench`` — the experiment table,
which imports every subsystem it runs — and nothing it runs may import
it back."""

from __future__ import annotations

from repro.analysis import lint_source
from repro.analysis.rules import LAYER_RANK


def rules_of(source: str, package: str) -> list[str]:
    return [f.rule for f in
            lint_source(source, "mod.py", f"repro.{package}.mod").findings]


def test_bench_is_the_top_rank():
    assert LAYER_RANK["bench"] == max(LAYER_RANK.values())
    assert LAYER_RANK["cluster"] == max(
        rank for pkg, rank in LAYER_RANK.items() if pkg != "bench"
    )


def test_lower_layers_cannot_import_cluster():
    for pkg in ("traffic", "fs", "workloads", "faults", "tiering", "crash"):
        assert "L201" in rules_of("from .. import cluster\n", pkg)
        assert "L201" in rules_of(
            "from repro.cluster import FilterScheduler\n", pkg
        )


def test_nothing_the_table_runs_may_import_bench():
    for pkg in ("cluster", "crash", "tiering", "analysis", "faults", "traffic"):
        assert "L201" in rules_of("from .. import bench\n", pkg)
        assert "L201" in rules_of(
            "from repro.bench.harness import build_aged_ssd_sim\n", pkg
        )


def test_cluster_may_import_everything_below():
    src = (
        "from ..traffic.engine import TrafficEngine\n"
        "from ..fs.filesystem import WaflSim\n"
        "from ..analysis import audit_sim\n"
        "from ..faults import default_scenario\n"
    )
    assert "L201" not in rules_of(src, "cluster")


def test_bench_imports_every_subsystem_statically():
    src = (
        "from ..cluster import run_cluster_bench\n"
        "from ..crash import explore_aging\n"
        "from ..tiering import run_tier_bench\n"
        "from ..analysis import arm_global\n"
        "from ..faults import run_chaos\n"
    )
    assert "L201" not in rules_of(src, "bench")


def test_cluster_cannot_import_itself_sideways():
    # Same-rank imports are still forbidden from other hypothetical
    # same-rank code; cluster's own relative imports stay legal.
    assert "L201" not in rules_of("from .stats import ShardSpec\n", "cluster")
