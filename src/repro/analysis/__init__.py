"""Static and runtime verification for the reproduction codebase.

* :mod:`repro.analysis.simlint` — the static analyzer (determinism,
  layering, hot-loop and output hygiene; per file and across the call
  graph); ``repro lint``.
* :mod:`repro.analysis.auditor` — CP-time whole-system invariant
  auditor; ``repro audit`` and ``pytest --audit``.
* :mod:`repro.analysis.rules` — the rule catalogue and the enforced
  package DAG.

This package sits at the top of the dependency DAG: it may import
everything, nothing imports it.
"""

from .auditor import (
    AuditReport,
    InvariantAuditor,
    Violation,
    arm_global,
    audit_sim,
    disarm_global,
)
from .passes import FlowConfig
from .rules import LAYER_RANK, RULES, Rule
from .simlint import (
    LintReport,
    format_findings,
    lint_paths,
    lint_source,
    report_to_json,
)
from .symbols import Finding

__all__ = [
    "AuditReport",
    "InvariantAuditor",
    "Violation",
    "arm_global",
    "audit_sim",
    "disarm_global",
    "LAYER_RANK",
    "RULES",
    "Rule",
    "Finding",
    "FlowConfig",
    "LintReport",
    "format_findings",
    "lint_paths",
    "lint_source",
    "report_to_json",
]
