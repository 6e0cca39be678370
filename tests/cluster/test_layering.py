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
    for pkg in ("traffic", "fs", "workloads", "faults", "tiering", "crash", "drill"):
        assert "L201" in rules_of("from .. import cluster\n", pkg)
        assert "L201" in rules_of(
            "from repro.cluster import FilterScheduler\n", pkg
        )


def test_nothing_the_table_runs_may_import_bench():
    for pkg in ("cluster", "drill", "crash", "tiering", "analysis", "faults", "traffic"):
        assert "L201" in rules_of("from .. import bench\n", pkg)
        assert "L201" in rules_of(
            "from repro.bench.harness import build_aged_ssd_sim\n", pkg
        )


def test_cluster_may_import_everything_below():
    src = (
        "from ..traffic.engine import TrafficEngine\n"
        "from ..fs.filesystem import WaflSim\n"
        "from ..analysis import audit_sim\n"
        "from ..faults import FaultInjector\n"
        "from ..drill import run_drill\n"
    )
    assert "L201" not in rules_of(src, "cluster")


def test_bench_imports_every_subsystem_statically():
    src = (
        "from ..cluster import Fleet, KillShard, run_cluster_bench\n"
        "from ..drill import CrashAt, run_drill\n"
        "from ..crash import crash_digest\n"
        "from ..tiering import build_tiered_sim\n"
        "from ..analysis import arm_global\n"
        "from ..faults import FaultInjector\n"
    )
    assert "L201" not in rules_of(src, "bench")


def test_the_drill_driver_sits_between_crash_and_cluster():
    """The driver schedules every mechanism below it and knows nothing
    of the fleet or the table: its package imports neither (checked on
    the real sources, which carry no L201 waiver), and the fleet's
    events reach it from above."""
    import ast
    from pathlib import Path

    import repro.drill

    assert LAYER_RANK["crash"] < LAYER_RANK["drill"] < LAYER_RANK["cluster"]
    for path in sorted(Path(repro.drill.__file__).parent.glob("*.py")):
        source = path.read_text()
        assert "simlint: disable" not in source
        imported = {
            node.module or "" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
        }
        assert not any(m.split(".")[0] in ("cluster", "bench") for m in imported)
        findings = lint_source(source, str(path), f"repro.drill.{path.stem}").findings
        assert [f for f in findings if f.rule == "L201"] == []
    src = (
        "from ..crash.persistence import PersistenceModel\n"
        "from ..tiering.migration import migrate_volume_tier\n"
        "from ..faults.recovery import escalate\n"
    )
    assert "L201" not in rules_of(src, "drill")


def test_no_package_imports_another_packages_private_names():
    """An underscore name is its package's own business: another
    package that needs it gets a public name instead."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    reaches = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        package = parts[0] if len(parts) > 1 else ""
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                base = list(parts[: len(parts) - node.level])
                target = [*base, *(node.module or "").split(".")]
            elif (node.module or "").startswith("repro."):
                target = node.module.split(".")[1:]
            else:
                continue
            target = [t for t in target if t]
            private = [a.name for a in node.names if a.name.startswith("_")]
            if private and target and target[0] != package:
                reaches.append(f"{path.relative_to(root)}:{node.lineno} {private}")
    assert reaches == []


def test_cluster_cannot_import_itself_sideways():
    # Same-rank imports are still forbidden from other hypothetical
    # same-rank code; cluster's own relative imports stay legal.
    assert "L201" not in rules_of("from .stats import ShardSpec\n", "cluster")
