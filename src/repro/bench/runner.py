"""Parallel benchmark runner: fan experiment configurations out to a
process pool and persist a JSON performance trajectory.

Every figure reproduction decomposes into independent *work units* (one
aged-and-measured configuration each), so the full suite parallelizes
trivially across processes: each unit builds its own simulator from a
deterministic seed, measures, and returns plain JSON-serializable
metrics.  The runner

* plans the unit list (:func:`plan_units`) from the experiment
  registry, deriving a per-unit seed deterministically from the unit's
  identity — a parallel run is byte-identical to a serial one apart
  from timing fields (see :func:`strip_timing`);
* executes units with :class:`concurrent.futures.ProcessPoolExecutor`
  (``workers=1`` runs in-process, the serial reference);
* writes one JSON document per experiment under
  ``benchmarks/results/bench_<experiment>.json`` and a trajectory
  summary ``benchmarks/results/trajectory.json`` (wall time per unit,
  aggregate units/s, peak capacity per configuration, host metadata);
* optionally diffs the deterministic metrics against a previous
  trajectory (:func:`compare_to_baseline`) as a regression gate.

Wall clocks here are informational; speed is measured with
``perfbench/`` (see ``perfbench/README.md``).

The ``--audit`` path arms the cross-layer invariant auditor inside each
worker via :func:`importlib.import_module` — ``repro.analysis`` sits
*above* ``bench`` in the package DAG, so a static import here would be
a layering violation (simlint L201); late binding keeps the dependency
optional and inverted, exactly like the ``audit_hook`` parameter of
:func:`~repro.bench.harness.measure_random_overwrite`.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import sys
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

from .. import obs
from ..common.config import SimConfig
from .harness import RESULTS_DIR, ConfigResult

__all__ = [
    "SCHEMA",
    "UnitSpec",
    "plan_units",
    "run_unit",
    "run_bench",
    "strip_timing",
    "compare_to_baseline",
    "write_results",
]

SCHEMA = "repro-bench/1"

#: Keys that vary run to run (wall clocks, host identity, pool size;
#: ``optimization`` is the before/after record older trajectory files
#: carry).  :func:`strip_timing` removes them so two runs of the same
#: units can be compared for byte-identical determinism.
_NONDETERMINISTIC_KEYS = frozenset(
    {"timing", "host", "workers", "optimization", "wall_s", "units_per_s"}
)

#: Canonical seed per experiment (the figures' published seeds), from
#: the one place seeds now live: :class:`repro.common.config.BenchConfig`.
_CANONICAL_SEEDS = SimConfig.default().bench.canonical_seeds()


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


# ----------------------------------------------------------------------
# Unit implementations (module-level: workers import this module and
# dispatch by name, so nothing below needs to pickle)
# ----------------------------------------------------------------------


def _config_result_metrics(r: ConfigResult) -> dict:
    d = asdict(r)
    d["capacity_ops"] = r.capacity_ops
    return d


def _unit_fig6(spec: UnitSpec) -> dict:
    from .experiments import run_fig6_config

    r = run_fig6_config(spec.unit, quick=spec.quick, seed=spec.seed)
    return _config_result_metrics(r)


def _unit_fig7(spec: UnitSpec) -> dict:
    from .experiments import run_fig7

    res = run_fig7(quick=spec.quick, seed=spec.seed)
    return {
        "blocks_per_disk_per_s": [
            (arr / res.seconds).tolist() for arr in res.blocks_per_disk
        ],
        "tetrises_per_s": (res.tetrises / res.seconds).tolist(),
        "blocks_per_s": (res.blocks / res.seconds).tolist(),
        "partial_stripe_fraction": [
            float(p) / float(s) if s else 0.0
            for p, s in zip(res.partials.tolist(), res.stripes.tolist())
        ],
        "aged_groups": res.aged(),
        "fresh_groups": res.fresh(),
    }


def _unit_fig8(spec: UnitSpec) -> dict:
    from .experiments import run_fig8_config

    r = run_fig8_config(spec.unit, quick=spec.quick, seed=spec.seed)
    return _config_result_metrics(r)


def _unit_fig9(spec: UnitSpec) -> dict:
    from .experiments import run_fig9_config

    return run_fig9_config(spec.unit, quick=spec.quick, seed=spec.seed)


def _unit_fig10(spec: UnitSpec) -> dict:
    from .experiments import run_fig10_count, run_fig10_size

    fn = run_fig10_size if spec.unit == "size" else run_fig10_count
    rows, _series = fn(quick=spec.quick)
    # The last column is the cache-build *wall* time: nondeterministic,
    # so it rides in the timing section (stripped for comparisons).
    return {
        "metrics": {"rows": [r[:-1] for r in rows]},
        "timing": {"build_wall_ms": [float(r[-1]) for r in rows]},
    }


def _unit_macro(spec: UnitSpec) -> dict:
    """The random-overwrite macro benchmark, timed per phase."""
    from .harness import build_aged_ssd_sim, measure_random_overwrite

    n_cps = 15 if spec.quick else 40
    t0 = time.perf_counter()
    sim = build_aged_ssd_sim(
        blocks_per_disk=65_536 if spec.quick else 131_072,
        churn_factor=1.0 if spec.quick else 2.0,
        seed=spec.seed,
    )
    t1 = time.perf_counter()
    r = measure_random_overwrite(sim, "macro", n_cps=n_cps)
    measure_wall = time.perf_counter() - t1
    return {
        "metrics": _config_result_metrics(r),
        "timing": {
            "age_wall_s": t1 - t0,
            "measure_wall_s": measure_wall,
            "cps_per_s": n_cps / measure_wall,
        },
    }


def _unit_traffic(spec: UnitSpec) -> dict:
    """One multi-tenant traffic scenario: per-tenant p50/p95/p99,
    achieved throughput, and QoS shedding under shared-backend load.
    Everything reported is simulated-clock derived, so the whole
    payload participates in the determinism and baseline gates."""
    from ..traffic import run_traffic

    run = run_traffic(
        spec.unit,
        n_tenants=2 if spec.quick else 4,
        seed=spec.seed,
        quick=spec.quick,
    )
    out = run.result.as_dict()
    out["calibrated_capacity_ops"] = run.calibration.capacity_ops
    return out


def _unit_cluster(spec: UnitSpec) -> dict:
    """The fleet bench: filter/weigher vs random placement on the
    noisy-neighbor fleet, plus the worker-scaling curve re-evaluating
    the same placement history (byte-identical digest at every worker
    count; only the wall clocks land in ``timing``).

    Late-bound through importlib: ``repro.cluster`` is the layer above
    this one in the DAG, so the bench may dispatch to it by name but
    never import it statically.
    """
    import importlib

    cluster = importlib.import_module("repro.cluster")
    return cluster.run_cluster_bench(
        quick=spec.quick, seed=spec.seed, audit=spec.audit
    )


def _unit_tier(spec: UnitSpec) -> dict:
    """The heterogeneous-tier demo: mixed SSD + HDD + SMR aggregate,
    chooser placement, deliberate misplacement corrected by the
    background migration pass (block conservation asserted inside).

    Late-bound through importlib: ``repro.tiering`` sits above bench in
    the DAG (same arrangement as the cluster unit).
    """
    import importlib

    tiering = importlib.import_module("repro.tiering")
    return tiering.run_tier_bench(
        quick=spec.quick, seed=spec.seed, audit=spec.audit
    )


_EXPERIMENTS: dict[str, tuple[str, ...]] = {}


def _unit_names(experiment: str) -> tuple[str, ...]:
    """Unit labels of one experiment (computed lazily: the registries
    live in :mod:`repro.bench.experiments`)."""
    if not _EXPERIMENTS:
        from .experiments import FIG6_CONFIGS, FIG8_SIZINGS, FIG9_SIZINGS

        _EXPERIMENTS.update(
            {
                "fig6": tuple(FIG6_CONFIGS),
                "fig7": ("oltp",),
                "fig8": tuple(FIG8_SIZINGS),
                "fig9": tuple(FIG9_SIZINGS),
                "fig10": ("size", "count"),
                "macro": ("random-overwrite",),
                "traffic": ("uniform", "noisy-neighbor", "throttled"),
                "cluster": ("fleet",),
                "tier": ("tiered",),
            }
        )
    return _EXPERIMENTS[experiment]


_RUNNERS = {
    "fig6": _unit_fig6,
    "fig7": _unit_fig7,
    "fig8": _unit_fig8,
    "fig9": _unit_fig9,
    "fig10": _unit_fig10,
    "macro": _unit_macro,
    "traffic": _unit_traffic,
    "cluster": _unit_cluster,
    "tier": _unit_tier,
}

ALL_EXPERIMENTS = tuple(_RUNNERS)


def _derive_seed(base: int, key: str) -> int:
    """Deterministic per-unit seed: stable across processes and runs."""
    return (base * 1_000_003 + zlib.crc32(key.encode())) & 0x7FFFFFFF


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
    audited runs (``"audited": true`` in the trajectory).  Full-size
    runs keep auditing opt-in because the auditor's bookkeeping rides
    inside the timed region the trajectory records.
    """
    chosen = list(experiments) if experiments else list(ALL_EXPERIMENTS)
    for name in chosen:
        if name not in _RUNNERS:
            raise ValueError(
                f"unknown experiment {name!r}; choose from {sorted(_RUNNERS)}"
            )
    units: list[UnitSpec] = []
    for exp in chosen:
        for unit in _unit_names(exp):
            s = (
                _CANONICAL_SEEDS[exp]
                if seed is None
                else _derive_seed(seed, f"{exp}/{unit}")
            )
            units.append(UnitSpec(exp, unit, quick, s, audit or quick, trace))
    return units


def run_unit(spec: UnitSpec) -> dict:
    """Execute one unit (in a worker or in-process) and wrap its
    metrics in the per-unit result document."""
    if spec.audit:
        # Late-bound: repro.analysis is a higher layer (see module doc).
        analysis = importlib.import_module("repro.analysis")
        analysis.arm_global()
    if spec.trace:
        obs.install()
    t0 = time.perf_counter()
    try:
        payload = _RUNNERS[spec.experiment](spec)
        trace_records = len(obs.get_tracer()) if spec.trace else 0
    finally:
        if spec.trace:
            obs.uninstall()
        if spec.audit:
            analysis.disarm_global()
    wall = time.perf_counter() - t0
    timing = {"wall_s": wall}
    if isinstance(payload, dict) and "timing" in payload and "metrics" in payload:
        timing.update(payload["timing"])
        payload = payload["metrics"]
    out = {
        "experiment": spec.experiment,
        "unit": spec.unit,
        "seed": spec.seed,
        "quick": spec.quick,
        "audited": spec.audit,
        "traced": spec.trace,
        "metrics": payload,
        "timing": timing,
    }
    if spec.trace:
        out["trace_records"] = trace_records
    return out


def _run_unit_tuple(args: tuple) -> tuple[str, dict]:
    """Picklable pool entry point."""
    spec = UnitSpec(*args)
    return spec.key, run_unit(spec)


def _spec_tuple(s: UnitSpec) -> tuple:
    return (s.experiment, s.unit, s.quick, s.seed, s.audit, s.trace)


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------


def _host_metadata(workers: int) -> dict:
    import numpy as np

    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "workers": workers,
    }


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
    """Run the benchmark suite and return the trajectory document.

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
    # The macro unit reports phase wall times, so it never shares
    # cores with pool workers: it runs serially, in-process, BEFORE the
    # pool starts.  Everything else only reports deterministic metrics
    # and can tolerate contention.  The cluster unit also runs
    # in-process: it owns a process pool of its own (one worker per
    # shard subset), and its scaling curve is a timed record too.
    _SERIAL = ("macro", "cluster")
    timed = [s for s in units if s.experiment in _SERIAL]
    pooled = [s for s in units if s.experiment not in _SERIAL]
    if workers <= 1:
        timed, pooled = units, []
    t0 = time.perf_counter()
    results: dict[str, dict] = {}
    for spec in timed:
        key, res = _run_unit_tuple(_spec_tuple(spec))
        results[key] = res
        if progress:
            progress(key, res)
    if pooled:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            arg_tuples = [_spec_tuple(s) for s in pooled]
            for key, res in pool.map(_run_unit_tuple, arg_tuples):
                results[key] = res
                if progress:
                    progress(key, res)
    total_wall = time.perf_counter() - t0

    # Canonical order: the planned unit order, not completion order.
    ordered = {spec.key: results[spec.key] for spec in units}
    capacity = {
        key: res["metrics"]["capacity_ops"]
        for key, res in ordered.items()
        if isinstance(res["metrics"], dict) and "capacity_ops" in res["metrics"]
    }
    doc = {
        "schema": SCHEMA,
        "kind": "trajectory",
        "quick": quick,
        "seed": seed,
        "units": ordered,
        "capacity_ops": capacity,
        "peak_capacity_ops": max(capacity.values()) if capacity else None,
        "host": _host_metadata(workers),
        "timing": {
            "total_wall_s": total_wall,
            "units": len(units),
            "units_per_s": len(units) / total_wall if total_wall else 0.0,
            "per_unit_wall_s": {
                key: res["timing"]["wall_s"] for key, res in ordered.items()
            },
        },
    }
    return doc


def write_results(
    doc: dict,
    *,
    out_dir: str | None = None,
    trajectory_path: str | None = None,
) -> list[str]:
    """Persist per-experiment JSON files plus the trajectory summary;
    returns the paths written."""
    out_dir = out_dir or RESULTS_DIR
    trajectory_path = trajectory_path or os.path.join(out_dir, "trajectory.json")
    os.makedirs(out_dir, exist_ok=True)
    paths: list[str] = []
    by_exp: dict[str, dict] = {}
    for key, res in doc["units"].items():
        by_exp.setdefault(res["experiment"], {})[res["unit"]] = res
    for exp, units in by_exp.items():
        per_exp = {
            "schema": SCHEMA,
            "kind": "experiment",
            "experiment": exp,
            "quick": doc["quick"],
            "units": units,
        }
        path = os.path.join(out_dir, f"bench_{exp}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(per_exp, f, indent=2, sort_keys=True)
            f.write("\n")
        paths.append(path)
    with open(trajectory_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    paths.append(trajectory_path)
    return paths


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


def _numeric_leaves(doc, prefix: str = "") -> dict[str, float]:
    out: dict[str, float] = {}
    if isinstance(doc, dict):
        for k, v in doc.items():
            out.update(_numeric_leaves(v, f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            out.update(_numeric_leaves(v, f"{prefix}[{i}]"))
    elif isinstance(doc, bool):
        pass
    elif isinstance(doc, (int, float)):
        out[prefix] = float(doc)
    return out


def compare_to_baseline(current: dict, baseline: dict, *, rtol: float = 1e-9) -> list[str]:
    """Diff two trajectory documents' deterministic metrics.

    Returns human-readable violation strings (empty = within ``rtol``).
    Timing and host fields never participate: the gate catches changes
    in *simulated* behaviour (throughput model, write amplification,
    metafile traffic), not machine speed.
    """
    cur = _numeric_leaves(strip_timing(current))
    base = _numeric_leaves(strip_timing(baseline))
    problems: list[str] = []
    for key in sorted(base):
        if key == "seed":
            continue
        if key not in cur:
            problems.append(f"missing metric {key} (baseline {base[key]:g})")
            continue
        b, c = base[key], cur[key]
        tol = rtol * max(abs(b), abs(c), 1e-12)
        if abs(b - c) > tol:
            problems.append(f"{key}: baseline {b:g} -> current {c:g}")
    return problems
