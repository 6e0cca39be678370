"""The cluster package sits at the top of the simlint DAG: it may
import every simulation layer, and nothing below may import it."""

from __future__ import annotations

from repro.analysis import lint_source
from repro.analysis.rules import LAYER_RANK


def rules_of(source: str, package: str) -> list[str]:
    return [f.rule for f in
            lint_source(source, "mod.py", f"repro.{package}.mod").findings]


def test_cluster_is_the_top_rank():
    assert LAYER_RANK["cluster"] == max(LAYER_RANK.values())


def test_lower_layers_cannot_import_cluster():
    for pkg in ("traffic", "fs", "bench", "workloads", "faults", "crash"):
        assert "L201" in rules_of("from .. import cluster\n", pkg)
        assert "L201" in rules_of(
            "from repro.cluster import FilterScheduler\n", pkg
        )


def test_cluster_may_import_everything_below():
    src = (
        "from ..traffic.engine import TrafficEngine\n"
        "from ..fs.filesystem import WaflSim\n"
        "from ..analysis import audit_sim\n"
        "from ..faults import default_scenario\n"
    )
    assert "L201" not in rules_of(src, "cluster")


def test_cluster_cannot_import_itself_sideways():
    # Same-rank imports are still forbidden from other hypothetical
    # rank-14 code; cluster's own relative imports stay legal.
    assert "L201" not in rules_of("from .stats import ShardSpec\n", "cluster")
