"""Unit tests for simlint: every rule in the one catalogue fires on a
minimal synthetic violation and stays silent on its near miss, clean
idioms stay clean, pragmas waive (and may not outlive their violation),
and the shipped source tree itself lints clean (the dogfood gate)."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.analysis import (
    RULES,
    FlowConfig,
    format_findings,
    lint_paths,
    lint_source,
)
from repro.analysis.rules import LAYER_RANK, ORDER_SAFE_CONSUMERS


def rules_of(source: str, package: str | None = None,
             config: FlowConfig | None = None) -> list[str]:
    """Rule ids fired on a synthetic module ``mod`` living in the DAG
    package ``package`` (None: a top-level module)."""
    module = f"repro.{package}.mod" if package else None
    return [f.rule for f in lint_source(source, "mod.py", module, config).findings]


#: ``mod`` (the synthetic module itself) is the simulation hot path.
HOT = FlowConfig(hot_root_modules=("mod",))

Spec = str | tuple[str, str | None] | tuple[str, str | None, FlowConfig]

#: One minimal violation per rule id; a tuple adds the DAG package the
#: synthetic module pretends to live in, and the flow config.
VIOLATIONS: dict[str, Spec] = {
    "D101": "import random\n",
    "D102": "import numpy as np\nrng = np.random.default_rng()\n",
    "D103": "import time\nt0 = time.time()\n",
    "D104": "s = {1, 2, 3}\nfor item in s:\n    print(item)\n",
    "L201": ("from ..fs.cp import CPEngine\n", "core"),
    "B502": (
        "import numpy as np\n"
        "admits = np.empty(4)\n"
        "for i in range(4):\n"
        "    admits[i] = float(i)\n",
        "traffic",
    ),
    "E404": ("print('loose output')\n", "core"),
    "P901": "x = 1  # simlint: disable=Z999\n",
    "F801": ("import time\ndef advance():\n    return time.perf_counter()\n",
             None, HOT),
    "F804": "def build(n, seed=42):\n    return (n, seed)\n"
            "def run(seed):\n    return build(8)\n",
}

#: The near miss of each violation above: what the rule must NOT flag.
NEAR_MISSES: dict[str, Spec] = {
    "D101": "from numpy import random\n",
    "D102": "import numpy as np\nrng = np.random.default_rng(42)\n",
    "D103": "import time\nt0 = time.perf_counter()\n",
    "D104": "s = {1, 2, 3}\nfor item in sorted(s):\n    print(item)\n",
    "L201": ("from ..sim.stats import CPStats\n", "fs"),
    "B502": (VIOLATIONS["B502"][0], "bench"),
    "E404": "print('cli output')\n",
    "P901": "s = {1}\nfor x in s:  # simlint: disable=D104\n    print(x)\n",
    # The same clock outside the hot path's call cone.
    "F801": VIOLATIONS["F801"][0],
    "F804": "def build(n, seed=42):\n    return (n, seed)\n"
            "def run(seed):\n    return build(8, seed)\n",
}


def fired(spec: Spec) -> list[str]:
    return rules_of(*(spec if isinstance(spec, tuple) else (spec,)))


class TestEveryRuleFires:
    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_rule_fires_on_minimal_violation(self, rule):
        assert rule in fired(VIOLATIONS[rule])

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_rule_is_silent_on_its_near_miss(self, rule):
        assert rule not in fired(NEAR_MISSES[rule])

    def test_catalogue_is_covered(self):
        # Adding (or merging) a rule without a firing and a non-firing
        # fixture fails here.
        assert set(VIOLATIONS) == set(NEAR_MISSES) == set(RULES)


class TestDeterminismRules:
    def test_seeded_default_rng_is_clean(self):
        assert rules_of("import numpy as np\nrng = np.random.default_rng(42)\n") == []

    def test_default_rng_none_seed_fires(self):
        assert "D102" in rules_of(
            "import numpy as np\nrng = np.random.default_rng(None)\n"
        )

    def test_legacy_global_numpy_rng_fires(self):
        assert "D102" in rules_of("import numpy as np\nnp.random.seed(3)\n")

    def test_random_call_through_alias_fires(self):
        src = "import random as rnd\nx = rnd.choice([1, 2])\n"
        assert "D101" in rules_of(src)

    def test_perf_counter_is_allowed(self):
        assert rules_of("import time\nt0 = time.perf_counter()\n") == []

    def test_wall_clock_fires(self):
        assert "D103" in rules_of("import time\nt0 = time.monotonic()\n")

    def test_sorted_set_iteration_is_clean(self):
        assert rules_of("s = {3, 1}\nfor x in sorted(s):\n    print(x)\n") == []

    @pytest.mark.parametrize("consumer", sorted(ORDER_SAFE_CONSUMERS))
    def test_order_safe_consumers_are_clean(self, consumer):
        assert rules_of(f"s = {{3, 1}}\nx = {consumer}(s)\n") == []

    def test_list_materialization_of_set_fires(self):
        assert "D104" in rules_of("s = {3, 1}\nx = list(s)\n")

    def test_comprehension_over_set_fires(self):
        assert "D104" in rules_of("s = {3, 1}\nxs = [x + 1 for x in s]\n")

    def test_self_attribute_set_tracked_across_methods(self):
        src = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self._out = set()\n"
            "    def walk(self):\n"
            "        for x in self._out:\n"
            "            print(x)\n"
        )
        assert "D104" in rules_of(src)

    def test_rebound_name_is_forgotten(self):
        src = "s = {1}\ns = [1]\nfor x in s:\n    print(x)\n"
        assert rules_of(src) == []


class TestElementwiseLoopRule:
    HOT_LOOP = (
        "import numpy as np\n"
        "vals = np.zeros(8)\n"
        "for i in range(8):\n"
        "    vals[i] = vals[i] + 1.0\n"
    )

    def test_fires_in_hot_path_packages(self):
        for pkg in ("fs", "bitmap", "traffic", "sim"):
            assert "B502" in rules_of(self.HOT_LOOP, pkg)

    def test_silent_outside_hot_paths(self):
        for pkg in ("bench", "analysis", "workloads", None):
            assert "B502" not in rules_of(self.HOT_LOOP, pkg)

    def test_whole_array_expression_is_clean(self):
        src = (
            "import numpy as np\n"
            "vals = np.zeros(8)\n"
            "vals += 1.0\n"
        )
        assert rules_of(src, "traffic") == []

    def test_python_list_indexing_is_clean(self):
        # Only names known to hold ndarrays fire; plain list loops are
        # the interpreter's job.
        src = "vals = [0.0] * 8\nfor i in range(8):\n    vals[i] = 1.0\n"
        assert rules_of(src, "traffic") == []

    def test_self_attribute_array_tracked(self):
        src = (
            "import numpy as np\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lat = np.empty(4)\n"
            "    def fill(self):\n"
            "        for i in range(4):\n"
            "            self._lat[i] = 0.0\n"
        )
        assert "B502" in rules_of(src, "traffic")

    def test_annotated_parameter_tracked(self):
        src = (
            "import numpy as np\n"
            "def f(xs: np.ndarray) -> float:\n"
            "    total = 0.0\n"
            "    for i in range(3):\n"
            "        total += xs[i]\n"
            "    return total\n"
        )
        assert "B502" in rules_of(src, "sim")

    def test_slice_view_of_array_tracked(self):
        src = (
            "import numpy as np\n"
            "base = np.arange(10)\n"
            "view = base[2:8]\n"
            "for i in range(6):\n"
            "    print(view[i])\n"
        )
        assert "B502" in rules_of(src, "bitmap")

    def test_rebound_to_list_is_forgotten(self):
        src = (
            "import numpy as np\n"
            "vals = np.zeros(4)\n"
            "vals = [0.0] * 4\n"
            "for i in range(4):\n"
            "    vals[i] = 1.0\n"
        )
        assert rules_of(src, "traffic") == []

    def test_fancy_index_scatter_is_clean(self):
        # `mask[idx_array] = True` batches the scatter; the loop variable
        # never appears as a scalar subscript.
        src = (
            "import numpy as np\n"
            "mask = np.zeros(16, dtype=bool)\n"
            "groups = [np.array([1, 2]), np.array([3])]\n"
            "for g in range(2):\n"
            "    mask[groups[g]] = True\n"
        )
        assert rules_of(src, "fs") == []

    def test_waivable_by_pragma(self):
        src = (
            "import numpy as np\n"
            "vals = np.zeros(4)\n"
            "for i in range(4):  # simlint: disable=B502\n"
            "    vals[i] = 1.0\n"
        )
        assert rules_of(src, "traffic") == []


class TestLayeringRules:
    def test_absolute_upward_import_fires(self):
        assert "L201" in rules_of("from repro.fs import WaflSim\n", "core")

    def test_old_bitmap_core_cycle_would_fire(self):
        # The exact edge this linter was dogfooded on (delayed_frees
        # lived in bitmap/ and imported core.hbps).
        assert "L201" in rules_of("from ..core.hbps import HBPS\n", "bitmap")

    def test_downward_import_is_clean(self):
        assert rules_of("from ..sim.stats import CPStats\n", "fs") == []

    def test_same_package_relative_import_is_clean(self):
        assert rules_of("from .hbps import HBPS\n", "core") == []

    def test_top_level_modules_are_unconstrained(self):
        assert rules_of("from repro.analysis import lint_paths\n", None) == []

    def test_substrate_importing_traffic_fires(self):
        # The traffic engine consumes workloads, never the reverse.
        assert "L201" in rules_of(
            "from ..traffic.engine import TrafficEngine\n", "workloads"
        )

    def test_traffic_importing_bench_fires(self):
        # Scenario builders re-create their testbed rather than reach up
        # into the bench harness.
        assert "L201" in rules_of(
            "from ..bench.harness import build_aged_ssd_sim\n", "traffic"
        )

    def test_faults_may_drive_traffic(self):
        assert rules_of("from ..traffic import run_traffic\n", "faults") == []

    def test_root_import_resolves_per_name(self):
        # ``from .. import obs`` reaches the obs *package*, not the
        # repro root: legal from any higher layer, illegal upward.
        assert rules_of("from .. import obs\n", "fs") == []
        assert "L201" in rules_of("from .. import traffic\n", "core")

    def test_nested_subpackage_relative_import_resolves(self):
        # Inside repro/analysis/flow/, ``from ..rules import`` reaches
        # repro.analysis.rules — not a phantom top-level repro.rules.
        src = "from ..rules import RULES\n"
        assert lint_source(src, "src/repro/analysis/flow/base.py",
                           "repro.analysis.flow.base").findings == ()

    def test_nested_subpackage_inferred_by_lint_file(self, tmp_path):
        mod = tmp_path / "repro" / "analysis" / "flow" / "mod.py"
        mod.parent.mkdir(parents=True)
        for pkg in (mod.parent, mod.parent.parent, mod.parent.parent.parent):
            (pkg / "__init__.py").touch()
        mod.write_text("from ..rules import RULES\n", encoding="utf-8")
        assert lint_paths([mod]).findings == ()

    def test_rationale_spells_out_the_whole_dag(self):
        assert all(pkg in RULES["L201"].rationale for pkg in LAYER_RANK)

    def test_dag_matches_source_layout(self):
        pkg_dir = Path(repro.__file__).parent
        on_disk = {
            p.name for p in pkg_dir.iterdir() if (p / "__init__.py").exists()
        }
        assert set(LAYER_RANK) == on_disk


class TestPrintRule:
    def test_print_inside_package_fires(self):
        assert "E404" in rules_of("print('status')\n", "fs")

    def test_print_in_top_level_module_is_exempt(self):
        # cli.py / __main__.py lint with package=None: user-facing
        # output is their job.
        assert rules_of("print('status')\n", None) == []

    def test_obs_counter_is_the_clean_idiom(self):
        src = "from .. import obs\nobs.count('cp.virtual_blocks', 4)\n"
        assert rules_of(src, "fs") == []

    def test_print_waivable_by_pragma(self):
        src = "print('x')  # simlint: disable=E404\n"
        assert rules_of(src, "bench") == []


class TestPragmas:
    def test_line_waiver(self):
        src = "s = {1, 2}\nfor x in s:  # simlint: disable=D104\n    print(x)\n"
        assert rules_of(src) == []

    def test_file_waiver(self):
        src = (
            "# simlint: disable-file=D104\n"
            "s = {1, 2}\nfor x in s:\n    print(x)\n"
        )
        assert rules_of(src) == []

    def test_waiver_names_specific_rules_only(self):
        src = "s = {1, 2}\nfor x in s:  # simlint: disable=E404\n    print(x)\n"
        assert "D104" in rules_of(src)

    def test_multi_rule_waiver(self):
        src = (
            "import time\n"
            "s = {1}\n"
            "xs = [time.time() for x in s]  # simlint: disable=D103,D104\n"
        )
        assert rules_of(src) == []

    def test_unknown_rule_in_waiver_fires_p901(self):
        findings = lint_source("x = 1  # simlint: disable=D99\n", "m.py").findings
        assert [f.rule for f in findings] == ["P901"]
        assert "'D99'" in findings[0].message

    def test_typo_waiver_still_waives_nothing(self):
        # The D104 violation survives AND the typo itself is flagged.
        src = "s = {1, 2}\nfor x in s:  # simlint: disable=D14\n    print(x)\n"
        assert sorted(rules_of(src)) == ["D104", "P901"]

    def test_unknown_rule_in_file_pragma_fires_p901(self):
        src = "# simlint: disable-file=Q123\nx = 1\n"
        assert rules_of(src) == ["P901"]

    def test_mixed_known_unknown_waiver(self):
        # Known ids keep waiving; each unknown id gets its own finding.
        src = "s = {1}\nfor x in s:  # simlint: disable=D104,Z1,Z2\n    print(x)\n"
        assert rules_of(src) == ["P901", "P901"]

    def test_stale_pragma_fires_p901(self):
        # The violation was fixed (sorted()), the comment was left: a
        # waiver may not outlive what it excused.
        src = "s = {1, 2}\nfor x in sorted(s):  # simlint: disable=D104\n    print(x)\n"
        (finding,) = lint_source(src, "m.py").findings
        assert finding.rule == "P901" and (finding.line, finding.col) == (2, 21)
        assert "no D104 finding on line 2" in finding.message

    def test_stale_file_pragma_fires_p901(self):
        assert rules_of("# simlint: disable-file=D104\nx = 1\n") == ["P901"]

    def test_own_line_pragma_covers_the_next_code_line(self):
        src = (
            "s = {1, 2}\n"
            "# simlint: disable=D104 — order is irrelevant,\n"
            "# the loop only sums\n"
            "for x in s:\n"
            "    print(x)\n"
        )
        report = lint_source(src, "m.py")
        assert report.findings == ()
        (waived,) = report.waived
        assert (waived.rule, waived.line) == ("D104", 4)
        assert waived.waiver == "order is irrelevant, the loop only sums"

    def test_pragma_text_in_a_string_is_not_a_pragma(self):
        assert rules_of("doc = 'use  # simlint: disable=D104  here'\n") == []

    def test_f_rule_waiver_needs_a_reason(self):
        bare = VIOLATIONS["F804"].replace(
            "build(8)\n", "build(8)  # simlint: disable=F804\n")
        assert sorted(rules_of(bare)) == ["F804", "P901"]
        assert rules_of(bare.replace("F804\n", "F804 — canonical seed\n")) == []

    def test_p901_is_itself_waivable(self):
        # A deliberate forward-reference to a not-yet-shipped rule can
        # be annotated on its own line.
        src = (
            "# simlint: disable-file=P901\n"
            "x = 1  # simlint: disable=X777\n"
        )
        assert rules_of(src) == []


class TestReporting:
    def test_finding_str_is_clickable(self):
        findings = lint_source("import random\n", "pkg/mod.py").findings
        assert str(findings[0]).startswith("pkg/mod.py:1:")
        assert "D101" in str(findings[0])

    def test_format_findings_summarizes_by_rule(self):
        text = format_findings(lint_source("import random\nimport random\n", "m.py"))
        assert "D101: 2" in text

    def test_lint_file_infers_package(self, tmp_path):
        mod = tmp_path / "repro" / "core" / "bad.py"
        mod.parent.mkdir(parents=True)
        for pkg in (mod.parent, mod.parent.parent):
            (pkg / "__init__.py").touch()
        mod.write_text("from repro.fs import WaflSim\n", encoding="utf-8")
        assert [f.rule for f in lint_paths([mod]).findings] == ["L201"]


class TestDogfood:
    def test_shipped_tree_is_clean(self):
        pkg_dir = Path(repro.__file__).parent
        report = lint_paths([pkg_dir])
        assert report.findings == (), format_findings(report)
