"""Reporting: byte-identical JSON across runs, deterministic finding
order, and the dogfood gate — the shipped tree must produce no unwaived
finding, and exactly the known, justified in-place waivers."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.analysis import FlowConfig, format_findings, lint_paths, report_to_json

CONFIG = FlowConfig(hot_root_modules=("app.hot",))

FILES = {
    "app/hot.py": "from app.util import stamp\n"
                  "def advance():\n    return stamp()\n",
    "app/util.py": "import time\n"
                   "def stamp():\n    return time.perf_counter()\n",
    "app/build.py": "def build_sim(n, seed=42):\n    return (n, seed)\n",
    "app/run.py": "from app.build import build_sim\n"
                  "def run(seed):\n    return build_sim(8)\n",
}

#: Every in-place waiver in src/repro, as (rule, file) -> count.
EXPECTED_WAIVERS = Counter({
    ("B502", "fs/flexvol.py"): 1,
    ("B502", "traffic/engine.py"): 1,
    # Canonical-seed pins.
    ("F804", "bench/experiments.py"): 1,
    ("F804", "traffic/scenarios.py"): 2,
    # Reporting-only wall clocks (start + stop of one timer each).
    ("F801", "fs/mount.py"): 2,
    ("F801", "cluster/cluster.py"): 2,
})


class TestDeterministicOutput:
    def test_json_is_byte_identical_across_runs(self, make_tree):
        root = make_tree(FILES)
        first = report_to_json(lint_paths([root], CONFIG))
        second = report_to_json(lint_paths([root], CONFIG))
        assert first == second

    def test_findings_are_sorted(self, make_tree):
        report = lint_paths([make_tree(FILES)], CONFIG)
        keys = [(f.path, f.line, f.col, f.rule) for f in report.findings]
        assert [f.rule for f in report.findings] == ["F804", "F801"]
        assert keys == sorted(keys)

    def test_json_carries_no_volatile_fields(self, make_tree):
        doc = json.loads(report_to_json(lint_paths([make_tree(FILES)],
                                                   CONFIG)))
        assert set(doc) == {"version", "findings", "waived", "summary"}
        for f in doc["findings"]:
            assert "time" not in f and "timestamp" not in f


PKG_DIR = Path(repro.__file__).parent


@pytest.fixture(scope="module")
def shipped():
    return lint_paths([PKG_DIR])


class TestDogfood:
    def test_shipped_tree_has_no_new_findings(self, shipped):
        assert shipped.findings == (), format_findings(shipped)
        sites = Counter(
            (f.rule, str(Path(f.path).relative_to(PKG_DIR))) for f in shipped.waived)
        assert sites == EXPECTED_WAIVERS

    def test_every_waiver_is_justified(self, shipped):
        for f in shipped.waived:
            if f.rule.startswith("F"):
                assert f.waiver and len(f.waiver.split()) >= 4, str(f)
