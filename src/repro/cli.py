"""Command-line interface: ``python -m repro <command>``.

Every row of the experiment table (:data:`repro.bench.experiments.
EXPERIMENTS`: figures, drills, overhead, ablations) is a generated
subcommand with one signature, ``repro <row> [unit ...] [--quick]
[--seed N]``: run the units, print the row's tables and claims, exit 1
naming any gated claim that fails.  ``repro bench`` sweeps rows through
a process pool into one results document under the same gate (``--workers
1`` runs them serially), and ``repro trace <row> <unit>`` traces one unit
of any row.  Only the tools (``info``, ``bench``, ``trace``, ``lint``) are
written by hand.  ``--quick`` shrinks a run for interactive use
(EXPERIMENTS.md's numbers come from full-size runs).  To profile a unit,
run a row under cProfile: ``python -m cProfile -s tottime -m repro fig6
"both caches" --quick``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from repro.bench import runner
from repro.bench.claims import gated_failures
from repro.bench.experiments import EXPERIMENTS


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.common import constants as c

    print(f"repro {repro.__version__} — reproduction of 'Efficient Search for "
          f"Free Blocks in the WAFL File System' (ICPP 2018)")
    print()
    print("modelling constants:")
    for name in (
        "BLOCK_SIZE",
        "BITS_PER_BITMAP_BLOCK",
        "DEFAULT_RAID_AA_STRIPES",
        "RAID_AGNOSTIC_AA_BLOCKS",
        "TETRIS_STRIPES",
        "HBPS_BIN_WIDTH",
        "HBPS_LIST_CAPACITY",
        "TOPAA_RAID_AWARE_ENTRIES",
        "AZCS_REGION_BLOCKS",
    ):
        print(f"  {name:26s} = {getattr(c, name)}")
    print()
    print("commands: " + " ".join(args.commands))
    return 0


def _check_claims(claims_by_row: dict[str, list], *, canonical: bool) -> int:
    """Print every row's claims; exit status 1 naming the gated ones
    that fail (:func:`repro.bench.claims.gated_failures`: invariants
    always, paper-shape claims on full-size canonical-seed runs)."""
    failed: list[str] = []
    for name, claims in claims_by_row.items():
        informational = not canonical and not all(c.invariant for c in claims)
        print(f"\n{name} paper claims"
              + (" (paper shapes informational: quick or re-seeded run)"
                 if informational else "") + ":")
        for claim in claims:
            print(f"  {claim}")
        failed += [f"{name}: {c.text}"
                   for c in gated_failures(claims, canonical=canonical)]
    if failed:
        print(f"\npaper claims check FAILED ({len(failed)} claim(s)):")
        for line in failed:
            print(f"  {line}")
    return 1 if failed else 0


def _cmd_row(args: argparse.Namespace) -> int:
    """Run one row of the table serially (all of its units, or those
    named) and print its tables and claims."""
    name, seed = args.command, args.seed
    exp = EXPERIMENTS[name]
    # The canonical plan (quick units audited, as in the sweep).  A row's
    # ``--seed`` is every unit's seed itself (``repro faults --seed 7``),
    # not ``bench --seed``'s base from which per-unit seeds derive.
    specs = runner.plan_units(quick=args.quick, experiments=[name], seed=None)
    results = {
        spec.unit: runner.run_unit(spec if seed is None else replace(spec, seed=seed))
        for spec in specs
        if not args.unit or spec.unit in args.unit
    }
    for table in exp.tables(results):
        print("\n" + table)
    return _check_claims({name: exp.claims(results)},
                         canonical=not args.quick and seed is None)


def _cmd_bench(args: argparse.Namespace) -> int:
    """Parallel sweep of the table: one JSON results document, every
    row's claims evaluated on it, and an optional baseline diff."""
    import json

    workers = args.workers
    if workers <= 0:
        workers = min(8, os.cpu_count() or 1)
    print(f"bench: {', '.join(args.experiments or EXPERIMENTS)} "
          f"({'quick' if args.quick else 'full'}, {workers} worker(s)"
          + (", audited" if args.audit else "")
          + (", traced" if args.trace else "") + ")")

    def progress(key: str, res: dict) -> None:
        wall = res["timing"]["wall_s"]
        cap = res["metrics"].get("capacity_ops")
        extra = f", {cap:,.0f} ops/s peak" if cap else ""
        print(f"  [done] {key:40s} {wall:7.2f}s{extra}")

    doc = runner.run_bench(
        quick=args.quick, workers=workers, experiments=args.experiments,
        seed=args.seed, audit=args.audit, trace=args.trace, progress=progress,
    )
    path = runner.write_results(doc, args.trajectory)
    t = doc["timing"]
    print(f"\n{t['units']} unit(s) in {t['total_wall_s']:.2f}s "
          f"({t['units_per_s']:.2f} units/s, {workers} worker(s))")
    print(f"wrote {path}")

    status = _check_claims(runner.evaluate_claims(doc),
                           canonical=not doc["quick"] and doc["seed"] is None)
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)
        rtol = runner.BASELINE_RTOL
        problems = runner.compare_to_baseline(doc, baseline, rtol=rtol)
        if problems:
            print(f"\nbaseline regression check FAILED "
                  f"({len(problems)} metric(s) moved, rtol={rtol:g}):")
            for p in problems[:40]:
                print(f"  {p}")
            if len(problems) > 40:
                print(f"  ... and {len(problems) - 40} more")
            return 1
        print(f"\nbaseline regression check OK (rtol={rtol:g}) vs {args.baseline}")
    return status


def _cmd_trace(args: argparse.Namespace) -> int:
    """Trace one unit of a row in process, tracer installed and auditor
    armed: the auditor's per-CP ``trace-vs-stats`` check (traced block
    counts == ``CPStats``) is the trace's one reconciliation (the
    ``audit`` row's own non-raising auditor counts a failure in its
    metrics instead).  Writes the Chrome trace and prints the span tree
    of the last intact CP."""
    from repro import obs
    from repro.bench.harness import RESULTS_DIR
    from repro.common.errors import AuditError

    seed = EXPERIMENTS[args.row].seed if args.seed is None else args.seed
    spec = runner.UnitSpec(args.row, args.unit, args.quick, seed, audit=True)
    failure = None
    tracer = obs.install()
    try:
        runner.run_unit(spec)
    except AuditError as exc:
        failure = exc
    finally:
        obs.uninstall()
    records = tracer.records()

    out = args.out or os.path.join(
        RESULTS_DIR, f"trace_{args.row}_{args.unit.replace(' ', '-')}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        f.write(obs.export.to_chrome(records) + "\n")
    intact = obs.report.complete_cps(records)
    if intact:
        print("\n".join(obs.report.span_tree_lines(records, cp=max(intact))))
    print(f"wrote {out}: {len(records)} trace record(s) over {len(intact)} intact "
          f"CP(s), {tracer.dropped} dropped")
    if failure is not None:
        print(f"trace reconciliation FAILED: {failure}")
        return 1
    print("trace reconciliation OK (every CP's traced block counts == CPStats)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """simlint: the repo's determinism, layering, hot-loop and output
    rules (see repro.analysis.rules), per file and across the call
    graph, in one pass."""
    from pathlib import Path

    from repro.analysis import format_findings, lint_paths, report_to_json

    report = lint_paths(args.paths or [str(Path(__file__).resolve().parent)])
    print(format_findings(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            f.write(report_to_json(report))
        print(f"wrote {args.json}")
    return 1 if report.findings else 0


def _unit_of(units: tuple[str, ...]):
    """argparse ``type=`` of a row's positional (``choices=`` would
    reject the empty default of ``nargs="*"``)."""
    def parse(value: str) -> str:
        if value not in units:
            raise argparse.ArgumentTypeError(
                f"unknown unit {value!r} (choose from {', '.join(map(repr, units))})")
        return value
    return parse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the WAFL free-block-search paper's evaluation: every "
                    "row of the experiment table is a subcommand.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    quick = dict(action="store_true", help="smaller configurations for interactive use")

    sub.add_parser("info", help="print version and modelling constants"
                   ).set_defaults(fn=_cmd_info)
    for name, exp in EXPERIMENTS.items():
        p = sub.add_parser(name, help=exp.title)
        p.add_argument("unit", nargs="*", type=_unit_of(exp.units),
                       help="units to run (default all): " + ", ".join(exp.units))
        p.add_argument("--quick", **quick)
        p.add_argument("--seed", type=int, default=None,
                       help=f"seed for every unit (default {exp.seed}, the canonical "
                            "one; same seed => identical metrics and digests)")
        p.set_defaults(fn=_cmd_row)
    p = sub.add_parser("bench", help="parallel sweep of the table -> one results JSON; "
                                     "invariants gate every run, the paper's shape "
                                     "claims full-size ones")
    p.add_argument("--quick", **quick)
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool size (1 = serial reference; 0 = auto)")
    p.add_argument("--experiments", nargs="*", choices=tuple(EXPERIMENTS),
                   help="subset to run (default: all)")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed (default: each experiment's canonical seed)")
    p.add_argument("--audit", action="store_true",
                   help="arm the CP-time invariant auditor inside workers")
    p.add_argument("--trace", action="store_true",
                   help="run units with the structured tracer installed "
                        "(trace-smoke: metrics must not move)")
    p.add_argument("--baseline", metavar="PATH",
                   help="results JSON to diff every deterministic leaf against "
                        "(numbers at rtol 1e-6, digests and flags exactly)")
    p.add_argument("--trajectory", metavar="PATH",
                   help="results document path (default "
                        "benchmarks/results/trajectory.json)")
    p.set_defaults(fn=_cmd_bench)
    p = sub.add_parser("trace", help="trace one unit of a row -> Chrome trace JSON + "
                                     "the span tree of its last CP, every CP "
                                     "reconciled by the auditor")
    rows = p.add_subparsers(dest="row", required=True, metavar="row")
    for name, exp in EXPERIMENTS.items():
        r = rows.add_parser(name, help=exp.title)
        r.add_argument("unit", choices=exp.units, help="the unit to trace")
        r.add_argument("--quick", **quick)
        r.add_argument("--seed", type=int, default=None,
                       help=f"the unit's seed (default {exp.seed}, the canonical one)")
        r.add_argument("--out", metavar="PATH",
                       help="Chrome trace path (default benchmarks/results/"
                            "trace_<row>_<unit>.json)")
    p.set_defaults(fn=_cmd_trace)
    p = sub.add_parser("lint", help="simlint: static analysis (determinism, layering, "
                                    "hot loops, output) per file and across calls")
    p.add_argument("paths", nargs="*",
                   help="files or directories (default: the installed repro package)")
    p.add_argument("--json", metavar="PATH",
                   help="also write the findings (kept and waived) as "
                        "deterministic JSON")
    p.set_defaults(fn=_cmd_lint)
    # ``info`` lists what is registered, so it cannot go stale.
    parser.set_defaults(commands=list(sub.choices))
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
