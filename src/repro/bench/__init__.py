"""Shared benchmark harness (configurations, measurement, tables), the
experiment table (:mod:`repro.bench.experiments`), and the parallel
runner (process-pool sweep + one JSON results document)."""

from .harness import (
    CORES,
    NCLIENTS,
    RESULTS_DIR,
    ConfigResult,
    build_aged_ssd_sim,
    fmt_table,
    measure_random_overwrite,
    popcount_audit,
    set_bitmap_checks,
)
from .runner import (
    compare_to_baseline,
    plan_units,
    run_bench,
    strip_timing,
    write_results,
)

__all__ = [
    "CORES",
    "NCLIENTS",
    "RESULTS_DIR",
    "ConfigResult",
    "build_aged_ssd_sim",
    "fmt_table",
    "measure_random_overwrite",
    "popcount_audit",
    "set_bitmap_checks",
    "compare_to_baseline",
    "plan_units",
    "run_bench",
    "strip_timing",
    "write_results",
]
