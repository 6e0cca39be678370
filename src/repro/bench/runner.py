"""Parallel benchmark runner: fan the experiment table's units out to a
process pool and persist one JSON results document.

Every experiment in :data:`~repro.bench.experiments.EXPERIMENTS`
decomposes into independent *work units* (one aged-and-measured
configuration each), so the full suite parallelizes trivially across
processes: each unit builds its own simulator from a deterministic
seed, measures, and returns plain JSON-serializable metrics.  The
runner

* plans the unit list (:func:`plan_units`) from the table, deriving a
  per-unit seed deterministically from the unit's identity — a parallel
  run is byte-identical to a serial one apart from timing fields (see
  :func:`strip_timing`);
* executes units with :class:`concurrent.futures.ProcessPoolExecutor`
  (``workers=1`` runs in-process, the serial reference);
* writes the results document (:func:`write_results`; wall time per
  unit, aggregate units/s, peak capacity per configuration, host
  metadata) to ``benchmarks/results/trajectory.json``;
* evaluates every experiment's claims on it (:func:`evaluate_claims`)
  and optionally diffs every deterministic leaf — numbers, digests,
  flags — against a checked-in baseline (:func:`compare_to_baseline`).

Wall clocks here are informational; speed is measured with
``perfbench/`` (see ``perfbench/README.md``).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..analysis import arm_global, disarm_global
from ..common.rng import derive_seed
from .claims import Claim
from .experiments import EXPERIMENTS
from .harness import RESULTS_DIR

__all__ = [
    "SCHEMA",
    "BASELINE_RTOL",
    "UnitSpec",
    "plan_units",
    "run_unit",
    "run_bench",
    "strip_timing",
    "compare_to_baseline",
    "evaluate_claims",
    "write_results",
]

SCHEMA = "repro-bench/1"

#: Tolerance of the checked-in baseline gate (``repro bench
#: --baseline``): loose enough to absorb numpy version differences.
BASELINE_RTOL = 1e-6

#: Keys that vary run to run (wall clocks, host identity, pool size) or
#: say how a unit was instrumented rather than what it measured.
#: :func:`strip_timing` removes them so two runs of the same units can
#: be compared for byte-identical determinism, traced against untraced.
_NONDETERMINISTIC_KEYS = frozenset(
    {"timing", "host", "workers", "wall_s", "units_per_s", "audited", "traced",
     "trace_records"}
)


@dataclass(frozen=True)
class UnitSpec:
    """One schedulable work unit: (experiment, configuration) + seed."""

    experiment: str
    unit: str
    quick: bool
    seed: int
    audit: bool = False
    #: Run the unit with the structured tracer installed (trace-smoke:
    #: instrumentation must not change the simulated metrics).
    trace: bool = False

    @property
    def key(self) -> str:
        return f"{self.experiment}/{self.unit}"


def plan_units(
    *,
    quick: bool = False,
    experiments: list[str] | None = None,
    seed: int | None = None,
    audit: bool = False,
    trace: bool = False,
) -> list[UnitSpec]:
    """The deterministic unit list for one run.

    With ``seed=None`` every unit uses its experiment's canonical seed
    (results match the ``repro figN`` commands); an explicit base seed
    derives a distinct-but-deterministic seed per unit.

    Quick units always arm the invariant auditor: the quick sweep is
    the CI bench-smoke, where the cheap configurations exist to catch
    correctness drift, not to document wall clocks — so they should be
    audited runs (``"audited": true`` in the document).  Full-size
    runs keep auditing opt-in because the auditor's bookkeeping rides
    inside the timed region the document records.
    """
    chosen = list(experiments) if experiments else list(EXPERIMENTS)
    for name in chosen:
        if name not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
            )
    units: list[UnitSpec] = []
    for name in chosen:
        exp = EXPERIMENTS[name]
        for unit in exp.units:
            s = exp.seed if seed is None else derive_seed(seed, f"{name}/{unit}")
            units.append(UnitSpec(name, unit, quick, s, audit or quick, trace))
    return units


def run_unit(spec: UnitSpec) -> dict:
    """Execute one unit (in a worker or in-process) and wrap its
    payload in the per-unit result document."""
    if spec.audit:
        arm_global()
    if spec.trace:
        obs.install()
    t0 = time.perf_counter()
    try:
        payload = EXPERIMENTS[spec.experiment].run(
            spec.unit, quick=spec.quick, seed=spec.seed
        )
        trace_records = len(obs.get_tracer()) if spec.trace else 0
    finally:
        if spec.trace:
            obs.uninstall()
        if spec.audit:
            disarm_global()
    wall = time.perf_counter() - t0
    out = {
        "experiment": spec.experiment,
        "unit": spec.unit,
        "seed": spec.seed,
        "quick": spec.quick,
        "audited": spec.audit,
        "traced": spec.trace,
        # The persisted (JSON) form, so tables and claims see the same
        # document fresh as read back from disk (string keys, lists).
        "metrics": json.loads(json.dumps(payload["metrics"])),
        "timing": {"wall_s": wall, **payload.get("timing", {})},
    }
    if spec.trace:
        out["trace_records"] = trace_records
    return out


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------


def run_bench(
    *,
    quick: bool = False,
    workers: int = 1,
    experiments: list[str] | None = None,
    seed: int | None = None,
    audit: bool = False,
    trace: bool = False,
    progress=None,
) -> dict:
    """Run the benchmark suite and return the results document.

    ``workers=1`` executes serially in-process (the determinism
    reference); ``workers>1`` fans units out to a process pool.  The
    returned document is what :func:`write_results` persists; unit
    results are keyed and ordered by ``experiment/unit`` regardless of
    completion order, so parallel and serial runs serialize identically
    once :func:`strip_timing` removes the wall clocks.
    """
    units = plan_units(
        quick=quick, experiments=experiments, seed=seed, audit=audit, trace=trace
    )
    # ``serial`` experiments never share cores with pool workers: they
    # run in-process BEFORE the pool starts.
    local = [s for s in units if workers <= 1 or EXPERIMENTS[s.experiment].serial]
    pooled = [s for s in units if s not in local]
    t0 = time.perf_counter()
    results: dict[str, dict] = {}

    def done(spec: UnitSpec, res: dict) -> None:
        results[spec.key] = res
        if progress:
            progress(spec.key, res)

    for spec in local:
        done(spec, run_unit(spec))
    if pooled:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for spec, res in zip(pooled, pool.map(run_unit, pooled)):
                done(spec, res)
    total_wall = time.perf_counter() - t0

    # Canonical order: the planned unit order, not completion order.
    ordered = {spec.key: results[spec.key] for spec in units}
    capacity = {
        key: res["metrics"]["capacity_ops"]
        for key, res in ordered.items()
        if "capacity_ops" in res["metrics"]
    }
    return {
        "schema": SCHEMA,
        "kind": "trajectory",
        "quick": quick,
        "seed": seed,
        "units": ordered,
        "capacity_ops": capacity,
        "peak_capacity_ops": max(capacity.values()) if capacity else None,
        "host": {
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "workers": workers,
        },
        "timing": {
            "total_wall_s": total_wall,
            "units": len(units),
            "units_per_s": len(units) / total_wall if total_wall else 0.0,
            "per_unit_wall_s": {
                key: res["timing"]["wall_s"] for key, res in ordered.items()
            },
        },
    }


def write_results(doc: dict, path: str | None = None) -> str:
    """Persist the results document; returns the path written."""
    path = path or os.path.join(RESULTS_DIR, "trajectory.json")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def evaluate_claims(doc: dict) -> dict[str, list[Claim]]:
    """The claims of every experiment in a results document, as
    ``{experiment: [Claim, ...]}``."""
    by_exp: dict[str, dict[str, dict]] = {}
    for res in doc["units"].values():
        by_exp.setdefault(res["experiment"], {})[res["unit"]] = res
    return {name: EXPERIMENTS[name].claims(units) for name, units in by_exp.items()}


# ----------------------------------------------------------------------
# Determinism / regression comparison
# ----------------------------------------------------------------------


def strip_timing(doc):
    """Recursively drop host/timing/pool fields, leaving only the
    deterministic payload (used by the determinism test and the
    baseline gate)."""
    if isinstance(doc, dict):
        return {
            k: strip_timing(v)
            for k, v in doc.items()
            if k not in _NONDETERMINISTIC_KEYS
        }
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _leaves(doc, prefix: str = "") -> dict[str, object]:
    """Every scalar of a document by dotted path (an empty container is
    a leaf too, so a list that must stay empty is compared)."""
    if isinstance(doc, dict) and doc:
        children = ((f"{prefix}.{k}" if prefix else str(k), v) for k, v in doc.items())
    elif isinstance(doc, list) and doc:
        children = ((f"{prefix}[{i}]", v) for i, v in enumerate(doc))
    else:
        return {prefix: doc}
    out: dict[str, object] = {}
    for path, value in children:
        out.update(_leaves(value, path))
    return out


def compare_to_baseline(current: dict, baseline: dict, *, rtol: float = 1e-9) -> list[str]:
    """Diff two results documents' deterministic leaves.

    Returns human-readable violation strings (empty = numbers within
    ``rtol``; digests, placements and flags equal).  Timing and host
    fields never participate: the gate catches changes in *simulated*
    behaviour (throughput model, write amplification, metafile traffic,
    crash matrices), not machine speed.  Leaves only the current
    document has are new measurements, not regressions.
    """
    cur = _leaves(strip_timing(current))
    base = _leaves(strip_timing(baseline))
    problems: list[str] = []
    for key in sorted(base):
        if key == "seed":
            continue
        b = base[key]
        shown = f"{b:g}" if _is_number(b) else repr(b)
        if key not in cur:
            problems.append(f"missing metric {key} (baseline {shown})")
            continue
        c = cur[key]
        if _is_number(b) and _is_number(c):
            if abs(b - c) > rtol * max(abs(b), abs(c), 1e-12):
                problems.append(f"{key}: baseline {b:g} -> current {c:g}")
        elif b != c:
            problems.append(f"{key}: baseline {shown} -> current {c!r}")
    return problems
