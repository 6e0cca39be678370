"""Every kept simlint rule shows its evidence on the real tree: one
seeded mutation per rule, applied in memory to a shipped module, must
trip exactly that rule at the mutated line — and the unmutated tree is
clean.  A rule with no row here has no place in the catalogue."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.analysis import RULES
from repro.analysis.callgraph import Project, load_project
from repro.analysis.simlint import lint_project
from repro.analysis.symbols import extract_module

KEPT = {"D101", "D102", "D103", "D104", "L201", "B502", "E404", "P901",
        "F801", "F804"}

#: rule -> (module, old text, new text[, text on the line the finding
#: must name — default: the new text]).  Only the first occurrence of
#: the old text is replaced.
MUTATIONS: dict[str, tuple[str, ...]] = {
    "D101": ("workloads/base.py", "import numpy as np\n",
             "import random\nimport numpy as np\n"),
    "D102": ("workloads/base.py", "make_rng(seed)", "np.random.default_rng()"),
    "D103": ("bench/runner.py", "wall = time.perf_counter() - t0",
             "wall = time.time() - t0"),
    # In the hot cone the same detection is also an F801 source.
    "D104": ("core/hbps_cache.py", "for aa in sorted(self._out):",
             "for aa in self._out:"),
    "L201": ("fs/cp.py", "import numpy as np\n",
             "from ..cluster import Cluster\nimport numpy as np\n"),
    # A waived reference loop: without its pragma the finding is back.
    "B502": ("fs/flexvol.py", ":  # simlint: disable=B502\n", ":  # scatter\n"),
    "E404": ("core/allocator.py", "        self._drop_queue()\n",
             "        print(self._drop_queue())\n"),
    # A pragma left behind after its violation was fixed.
    "P901": ("bench/experiments.py", "n_cps=15 if quick else 40)",
             "n_cps=15 if quick else 40, seed=seed)",
             "# simlint: disable=F804 — fig6 measures"),
    # A clock D103 tolerates, in a function the CP engine reaches.
    "F801": ("fs/flexvol.py", "self._snap_mask = None\n",
             "self._snap_mask = None if time.perf_counter() >= 0 else None\n"),
    "F804": ("workloads/aging.py", "ops_per_cp=ops_per_cp, seed=seed)",
             "ops_per_cp=ops_per_cp)"),
}


@pytest.fixture(scope="module")
def project() -> Project:
    return load_project([Path(repro.__file__).parent])


def test_catalogue_is_exactly_the_kept_rules():
    assert set(RULES) == set(MUTATIONS) == KEPT


def test_unmutated_tree_is_clean_with_nine_waivers(project):
    report = lint_project(project)
    assert report.findings == ()
    assert sorted(f.rule for f in report.waived) == (
        ["B502"] * 2 + ["F801"] * 4 + ["F804"] * 3)


@pytest.mark.parametrize("rule", sorted(MUTATIONS))
def test_seeded_mutation_trips_its_rule(project, rule):
    rel, old, new, *at = MUTATIONS[rule]
    (target,) = [m for m in project.modules if m.path.endswith("/" + rel)]
    source = Path(target.path).read_text(encoding="utf-8")
    assert old in source, f"{rel} no longer contains the mutation site"
    mutated = source.replace(old, new, 1)
    line = mutated[:mutated.index(at[0] if at else new)].count("\n") + 1
    modules = [extract_module(mutated, m.path, m.module) if m is target else m
               for m in project.modules]
    fired = {(f.rule, f.line) for f in lint_project(Project(modules)).findings}
    expected = {(rule, line)} | ({("F801", line)} if rule == "D104" else set())
    assert fired == expected
