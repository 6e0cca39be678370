"""simlint: the static analyzer with codebase-specific rules.

The rules (catalogue in :mod:`repro.analysis.rules`) encode properties
the paper's evaluation depends on but Python cannot enforce by itself:
determinism of every hot path (D, F801, F804), an acyclic package DAG
(L), vectorized hot loops (B502) and output hygiene (E404).  One run
does everything: each file is
parsed and walked once (:mod:`repro.analysis.symbols`), the call graph
is linked (:mod:`repro.analysis.callgraph`), the whole-program passes
run over it (:mod:`repro.analysis.passes`), then waivers apply.

Usage::

    from repro.analysis import lint_paths
    report = lint_paths(["src/repro"])
    assert not report.findings

or from the command line: ``repro lint src/repro``.

Waivers: the in-place pragma is the only mechanism.  Append
``# simlint: disable=D104`` to the offending line — or put it on its
own comment line directly above — and follow it with ``— <reason>``
(mandatory for F-rules; the text may run on over further comment
lines).  ``# simlint: disable-file=D104`` on its own line waives a rule
for a whole module.  Waivers name specific rules; there is no blanket
disable, and a waiver that suppresses nothing is itself a finding
(P901), so none can outlive its violation.  Whole-program findings are
judged against the tree that was linted: lint the package root.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .callgraph import Project, build_graph, load_project
from .passes import FlowConfig, run_passes
from .rules import RULES
from .symbols import Finding, Pragma, extract_module

__all__ = ["LintReport", "format_findings", "lint_paths", "lint_project",
           "lint_source", "report_to_json"]


@dataclass(frozen=True)
class LintReport:
    """Everything one run produced."""

    #: Unwaived findings: any of these fails the run.
    findings: tuple[Finding, ...]
    #: Findings suppressed by an in-place pragma (``waiver`` holds its
    #: reason text).
    waived: tuple[Finding, ...]
    n_files: int
    n_functions: int
    n_edges: int


def _lacks_reason(pragma: Pragma) -> bool:
    """F-rule waivers excuse a whole call chain: the reason is mandatory."""
    return pragma.rule.startswith("F") and not pragma.reason


def _stale(path: str, pragma: Pragma) -> Finding:
    """The P901 finding for a pragma that suppressed nothing."""
    if pragma.rule not in RULES:
        why = f"'{pragma.rule}' is not in the rule catalogue"
    elif _lacks_reason(pragma):
        why = (f"an F-rule waiver must state its reason "
               f"('disable={pragma.rule} — <why>')")
    else:
        where = f"line {pragma.covers}" if pragma.covers else "this file"
        why = f"no {pragma.rule} finding on {where}"
    return Finding("P901", path, pragma.line, pragma.col,
                   f"{RULES['P901'].summary}: {why}")


def _apply_pragmas(
    findings: list[Finding], pragmas: dict[str, list[Pragma]]
) -> tuple[list[Finding], list[Finding]]:
    """Split findings into (kept, waived) and add a P901 for every
    pragma that waived nothing."""
    kept: list[Finding] = []
    waived: list[Finding] = []
    used: set[tuple[str, Pragma]] = set()

    def sweep(batch: list[Finding]) -> None:
        for f in batch:
            hit = next(
                (p for p in pragmas.get(f.path, ())
                 if p.rule == f.rule and p.covers in (0, f.line)
                 and not _lacks_reason(p)), None)
            if hit is None:
                kept.append(f)
            else:
                used.add((f.path, hit))
                waived.append(dataclasses.replace(f, waiver=hit.reason))

    sweep(findings)
    # P901 pragmas are exempt from the staleness check they implement.
    sweep([_stale(path, p) for path, ps in pragmas.items() for p in ps
           if (path, p) not in used and p.rule != "P901"])
    return kept, waived


def _order(f: Finding) -> tuple[str, int, int, str, str]:
    return (f.path, f.line, f.col, f.rule, f.message)


def lint_project(project: Project, config: FlowConfig | None = None) -> LintReport:
    """Lint an extracted project: per-file findings, whole-program
    passes, waivers."""
    graph = build_graph(project)
    findings = [f for mod in project.modules for f in mod.findings]
    findings += run_passes(graph, config if config is not None else FlowConfig())
    kept, waived = _apply_pragmas(
        findings, {mod.path: mod.pragmas for mod in project.modules})
    return LintReport(
        findings=tuple(sorted(kept, key=_order)),
        waived=tuple(sorted(waived, key=_order)),
        n_files=len(project.modules),
        n_functions=len(project.functions),
        n_edges=sum(len(edges) for edges in graph.edges.values()),
    )


def lint_paths(
    paths: Iterable[str | Path], config: FlowConfig | None = None
) -> LintReport:
    """Lint every ``*.py`` file under the given files/directories as one
    project: per-file rules, whole-program passes, waivers."""
    return lint_project(load_project(paths), config)


def lint_source(
    source: str, path: str = "<string>", module: str | None = None,
    config: FlowConfig | None = None,
) -> LintReport:
    """Lint one in-memory module as a one-file project; ``module`` is
    its dotted name (``repro.fs.cp``), which positions it in the
    package DAG — by default it is a top-level module."""
    return lint_project(Project([extract_module(source, path, module)]), config)


def format_findings(report: LintReport) -> str:
    """Human-readable report: one entry per unwaived finding (with its
    call-chain trace, if any) plus a summary line."""
    scope = (f"{len(report.waived)} waived in place; {report.n_files} file(s), "
             f"{report.n_functions} function(s), {report.n_edges} call edge(s)")
    if not report.findings:
        return f"simlint: clean (0 findings; {scope})"
    by_rule: dict[str, int] = {}
    for f in report.findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    summary = ", ".join(f"{r}: {n}" for r, n in sorted(by_rule.items()))
    return "\n".join([
        *(str(f) for f in report.findings),
        f"simlint: {len(report.findings)} finding(s) ({summary}; {scope})"])


def report_to_json(report: LintReport) -> str:
    """Deterministic JSON serialization: same tree -> same bytes."""
    doc = {
        "version": 2,
        "findings": [dataclasses.asdict(f) for f in report.findings],
        "waived": [dataclasses.asdict(f) for f in report.waived],
        "summary": {
            "files": report.n_files,
            "functions": report.n_functions,
            "call_edges": report.n_edges,
            "findings": len(report.findings),
            "waived": len(report.waived),
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
