"""The waiver ratchet: an unwaived finding fails the run, a finding
waived in place passes and carries its justification, and a waiver
whose violation was fixed is itself reported — it cannot outlive what
it excused."""

from __future__ import annotations

import json

from repro.analysis import FlowConfig, lint_paths
from repro.cli import main

CONFIG = FlowConfig(hot_root_modules=("app.hot",))

WAIVER = "  # simlint: disable=F801 — known reporting-only clock"


def dirty(pragma: str = "", header: str = "") -> dict[str, str]:
    """One F801: the hot path reaches perf_counter."""
    return {
        "app/hot.py": "from app.util import stamp\n"
                      "def advance():\n    return stamp()\n",
        "app/util.py": f"import time\n{header}"
                       f"def stamp():\n    return time.perf_counter(){pragma}\n",
    }


class TestSplitAndWrite:
    def test_new_finding_fails_the_ratchet(self, make_tree):
        report = lint_paths([make_tree(dirty())], CONFIG)
        assert [f.rule for f in report.findings] == ["F801"]
        assert not report.waived

    def test_baselined_finding_is_waived(self, make_tree):
        report = lint_paths([make_tree(dirty(WAIVER))], CONFIG)
        assert not report.findings
        assert [f.rule for f in report.waived] == ["F801"]

    def test_fingerprint_survives_line_shuffles(self, make_tree):
        # Unrelated edits move every line; the waiver sits on the line
        # it excuses, so it moves with it.
        report = lint_paths(
            [make_tree(dirty(WAIVER, header="\n\nHEADER = 1\n\n"))], CONFIG)
        assert not report.findings
        assert [(f.rule, f.line) for f in report.waived] == [("F801", 7)]

    def test_fixed_finding_goes_stale_then_prunes(self, make_tree):
        fixed = dirty(WAIVER)
        fixed["app/util.py"] = fixed["app/util.py"].replace(
            "time.perf_counter()", "0")
        (finding,) = lint_paths([make_tree(fixed)], CONFIG).findings
        assert finding.rule == "P901"
        assert "no F801 finding on line 3" in finding.message
        # Deleting the comment is the prune.
        fixed["app/util.py"] = fixed["app/util.py"].replace(WAIVER, "")
        assert not lint_paths([make_tree(fixed)], CONFIG).findings

    def test_justifications_are_preserved(self, make_tree):
        (waived,) = lint_paths([make_tree(dirty(WAIVER))], CONFIG).waived
        assert waived.waiver == "known reporting-only clock"
        assert waived.trace  # the waived finding keeps its call chain


class TestCliRatchet:
    """End-to-end through ``repro lint``.

    The fixture tree deliberately has no hot modules matching the
    shipped FlowConfig, so only F804 (checked tree-wide) can fire.
    """

    FILES = {
        "app/build.py": "def build_sim(nblocks, seed=42):\n"
                        "    return (nblocks, seed)\n",
        "app/run.py": "from app.build import build_sim\n"
                      "def run(seed):\n"
                      "    return build_sim(1024)\n",
    }

    def _waived(self) -> dict[str, str]:
        files = dict(self.FILES)
        files["app/run.py"] = files["app/run.py"].replace(
            "build_sim(1024)\n",
            "build_sim(1024)  # simlint: disable=F804 — canonical testbed\n")
        return files

    def test_unbaselined_finding_exits_nonzero(self, make_tree, capsys):
        assert main(["lint", str(make_tree(self.FILES))]) == 1
        out = capsys.readouterr().out
        assert "F804" in out
        assert "-> app.build.build_sim" in out  # the call-chain trace

    def test_new_violation_still_fails_with_baseline(self, make_tree, capsys):
        files = self._waived()
        assert main(["lint", str(make_tree(files))]) == 0
        assert "0 findings; 1 waived in place" in capsys.readouterr().out
        files["app/more.py"] = (
            "from app.build import build_sim\n"
            "def other(seed):\n"
            "    return build_sim(2048)\n"
        )
        assert main(["lint", str(make_tree(files))]) == 1
        out = capsys.readouterr().out
        assert "app.more.other" in out
        assert "1 finding(s) (F804: 1; 1 waived in place" in out

    def test_json_report_is_written(self, make_tree, tmp_path, capsys):
        json_path = tmp_path / "lint.json"
        main(["lint", str(make_tree(self._waived())), "--json", str(json_path)])
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        assert doc["summary"]["findings"] == 0
        assert doc["summary"]["waived"] == 1
        assert doc["waived"][0]["rule"] == "F804"
        assert doc["waived"][0]["waiver"] == "canonical testbed"
