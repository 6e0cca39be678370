"""Command-line interface: ``python -m repro <command>``.

Every row of the experiment table (:data:`repro.bench.experiments.
EXPERIMENTS`: figures, drills, overhead, ablations) is a generated
subcommand with one signature, ``repro <row> [unit ...] [--quick]
[--seed N]``: run the units, print the row's tables and claims, exit 1
naming any gated claim that fails.  ``repro bench`` sweeps rows through
a process pool into one results document under the same gate.  Only the
tools (``info``, ``all``, ``trace``, ``profile``, ``lint``,
``quickstart``) are written by hand.  ``--quick`` shrinks a run for
interactive use (EXPERIMENTS.md's numbers come from full-size runs).
"""

from __future__ import annotations

import argparse
import collections
import os
import signal
import sys
import time
from dataclasses import replace

from repro.bench import runner
from repro.bench.claims import gated_failures
from repro.bench.experiments import EXPERIMENTS, PROFILE_UNIT
from repro.traffic.scenarios import DEFAULT_TENANTS


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


def _run_row(name: str, *, units=(), quick: bool = False, seed: int | None = None) -> int:
    """Run one row of the table serially (all of its units, or those
    named) and print its tables and claims."""
    exp = EXPERIMENTS[name]
    # The canonical plan (quick units audited, as in the sweep).  A row's
    # ``--seed`` is every unit's seed itself (``repro faults --seed 7``),
    # not ``bench --seed``'s base from which per-unit seeds derive.
    specs = runner.plan_units(quick=quick, experiments=[name], seed=None)
    results = {
        spec.unit: runner.run_unit(spec if seed is None else replace(spec, seed=seed))
        for spec in specs
        if not units or spec.unit in units
    }
    for table in exp.tables(results):
        print("\n" + table)
    return _check_claims({name: exp.claims(results)},
                         canonical=not quick and seed is None)


def _cmd_row(args: argparse.Namespace) -> int:
    return _run_row(args.command, units=args.unit, quick=args.quick, seed=args.seed)


def _cmd_all(args: argparse.Namespace) -> int:
    """Every row of the table, serially, each at its canonical seed."""
    status = 0
    for name in EXPERIMENTS:
        t0 = time.perf_counter()
        print(f"\n{'=' * 72}\n== {name}\n{'=' * 72}")
        status |= _run_row(name, quick=args.quick)
        print(f"\n[{name}: {time.perf_counter() - t0:.1f}s]")
    return status


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


_PACKAGE_ROOT = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _sample_stacks(run, top: int, root: str = _PACKAGE_ROOT):
    """Run ``run()`` while a ``SIGALRM`` every ~1 ms reads the main
    thread's stack, then print the hottest lines under ``root`` (the
    ``repro`` package; innermost frame) and functions (inclusive): no
    per-call hook, unlike cProfile.  A signal is handled only between
    bytecodes, so each sample weighs the wall time since the one before:
    a long C call that drops the GIL counts for as long as it ran, not
    for how often a thread could read the stack meanwhile.  Python looks
    for signals after a call and on entering a function, so a NumPy
    statement that makes no call (a fancy-index store) is charged to the
    next line that looks, often the ``def`` line of the next callee."""
    lines, funcs = collections.Counter(), collections.Counter()
    last, n = time.perf_counter(), 0

    def sample(signum, frame) -> None:
        nonlocal last, n
        now = time.perf_counter()
        weight, last, stack = now - last, now, []
        while frame is not None:
            if frame.f_code.co_filename.startswith(root):
                where = frame.f_code.co_filename[len(root):]
                stack.append((f"{where}:{frame.f_lineno}", f"{where}:{frame.f_code.co_name}"))
            frame = frame.f_back
        if stack:
            n += 1
            lines[stack[0][0]] += weight
            funcs.update(dict.fromkeys((f for _, f in stack), weight))

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)
    try:
        res = run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    for title, counts in (("lines (innermost)", lines), ("functions (inclusive)", funcs)):
        print(f"\nhottest repro {title}, share of {n} samples:")
        for key, c in counts.most_common(top):
            print(f"  {c / lines.total():7.2%}  {key}")
    return res


def _cmd_profile(args: argparse.Namespace) -> int:
    """cProfile the macro benchmark unit (named by the experiment table),
    or sample its stack with ``--lines``, and report wall-clock hotspots
    next to the modeled per-phase CPU decomposition."""
    import cProfile
    import pstats

    from repro.bench.harness import RESULTS_DIR

    name, unit = PROFILE_UNIT
    spec = runner.UnitSpec(name, unit, args.quick, EXPERIMENTS[name].seed)
    if args.lines:
        res = _sample_stacks(lambda: runner.run_unit(spec), args.top)
    else:
        with cProfile.Profile() as prof:
            res = runner.run_unit(spec)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        dump = os.path.join(RESULTS_DIR, "profile.prof")
        prof.dump_stats(dump)
        pstats.Stats(prof).sort_stats(args.sort).print_stats(args.top)
        print(f"profile dump: {dump} (open with pstats or snakeviz)")
    metrics = res["metrics"]

    print(f"\n{name}/{unit}: aging + measurement "
          f"{res['timing']['wall_s']:.2f}s under profiler")
    print(f"cpu_us_per_op {metrics['cpu_us_per_op']:.3f}, "
          f"capacity {metrics['capacity_ops']:,.0f} ops/s")

    phases = metrics["cpu_phase_us"]
    total = sum(phases.values()) or 1.0
    print("\nmodeled CPU by pipeline phase (measurement sweep):")
    for phase, us in sorted(phases.items(), key=lambda kv: -kv[1]):
        print(f"  {phase:20s} {us / 1e6:9.3f} s-CPU  {us / total:7.2%}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Trace a traffic scenario: Chrome trace_event JSON plus a per-CP
    span tree reconciled exactly against the run's CPStats records."""
    from repro import obs
    from repro.bench.harness import RESULTS_DIR
    from repro.traffic import run_traffic

    # Accept underscores for convenience (noisy_neighbor == noisy-neighbor).
    scenario = args.scenario.replace("_", "-")
    print(f"trace: scenario={scenario}, {args.tenants} tenant(s), "
          f"seed={args.seed} ({'quick' if args.quick else 'full'})")
    t0 = time.perf_counter()
    tracer = obs.install()
    try:
        run = run_traffic(
            scenario, n_tenants=args.tenants, seed=args.seed, quick=args.quick
        )
    finally:
        obs.uninstall()
    records = tracer.records()

    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = args.out or os.path.join(RESULTS_DIR, f"trace_{scenario}.json")
    with open(out, "w", encoding="utf-8") as f:
        f.write(obs.export.to_chrome(records))
        f.write("\n")
    paths = [out]
    if args.jsonl:
        jsonl_path = os.path.splitext(out)[0] + ".jsonl"
        with open(jsonl_path, "w", encoding="utf-8") as f:
            f.write(obs.export.to_jsonl(records))
        paths.append(jsonl_path)

    if args.tree:
        intact = sorted(obs.report.complete_cps(records))
        show = intact[-args.tree:]
        lines: list[str] = []
        for cp_index in show:
            lines.extend(obs.report.span_tree_lines(records, cp=cp_index))
        print("\n".join(lines))

    problems = obs.report.reconcile(records, run.sim.metrics.cps)
    n_cps = len(obs.report.complete_cps(records))
    dt = time.perf_counter() - t0
    for p in paths:
        print(f"wrote {p}")
    print(f"{len(records)} trace record(s), {tracer.dropped} dropped, "
          f"{n_cps} CP(s) reconciled against CPStats [{dt:.1f}s]")
    if problems:
        print(f"trace reconciliation FAILED ({len(problems)} mismatch(es)):")
        for p in problems[:20]:
            print(f"  {p}")
        return 1
    print("trace reconciliation OK (traced block counts == counted)")
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


def _cmd_quickstart(args: argparse.Namespace) -> int:
    from repro import RandomOverwriteWorkload, WaflSim
    from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
    from repro.workloads import fill_volumes

    sim = WaflSim.build(
        AggregateSpec(
            tiers=(TierSpec(label="ssd", media="ssd", ndata=4,
                            blocks_per_disk=65536),),
            volumes=(VolumeDecl("demo", logical_blocks=60_000),),
        ),
        seed=7,
    )
    fill_volumes(sim)
    sim.run(RandomOverwriteWorkload(sim, seed=1), 10)
    for key, val in sim.metrics.summary().items():
        print(f"  {key:24s} = {val:.3f}")
    sim.verify_consistency()
    print("consistency verified")
    return 0


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
    p = sub.add_parser("all", help="run every row of the table, serially")
    p.add_argument("--quick", **quick)
    p.set_defaults(fn=_cmd_all)
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
    p = sub.add_parser(
        "trace",
        help="trace a traffic scenario -> Chrome trace JSON + span tree "
             "reconciled against CPStats",
    )
    p.add_argument("--scenario", default="noisy-neighbor",
                   help="scenario to trace (uniform, noisy-neighbor, throttled; "
                        "underscores accepted)")
    p.add_argument("--tenants", type=int, default=DEFAULT_TENANTS,
                   help="number of tenants (default %(default)s)")
    p.add_argument("--seed", type=int, default=7,
                   help="traffic seed (same seed => byte-identical trace)")
    p.add_argument("--quick", **quick)
    p.add_argument("--out", metavar="PATH",
                   help="Chrome trace path (default benchmarks/results/"
                        "trace_<scenario>.json)")
    p.add_argument("--jsonl", action="store_true",
                   help="also write the raw records as JSON-lines")
    p.add_argument("--tree", type=int, default=2, metavar="N",
                   help="print the span tree of the last N CPs (0 = none)")
    p.set_defaults(fn=_cmd_trace)
    p = sub.add_parser("profile", help="cProfile (or line-sample) the macro benchmark "
                                       "+ modeled per-phase CPU breakdown")
    p.add_argument("--quick", **quick)
    p.add_argument("--lines", action="store_true", help="sample the stack every ~1 ms "
                   "instead: hottest lines and functions, no per-call overhead")
    p.add_argument("--top", type=int, default=25, help="rows of pstats / sample output")
    p.add_argument("--sort", default="cumulative",
                   choices=["cumulative", "tottime", "calls"],
                   help="pstats sort key")
    p.set_defaults(fn=_cmd_profile)
    p = sub.add_parser("lint", help="simlint: static analysis (determinism, layering, "
                                    "hot loops, output) per file and across calls")
    p.add_argument("paths", nargs="*",
                   help="files or directories (default: the installed repro package)")
    p.add_argument("--json", metavar="PATH",
                   help="also write the findings (kept and waived) as "
                        "deterministic JSON")
    p.set_defaults(fn=_cmd_lint)
    sub.add_parser("quickstart", help="run the quickstart demo"
                   ).set_defaults(fn=_cmd_quickstart)
    # ``info`` lists what is registered, so it cannot go stale.
    parser.set_defaults(commands=list(sub.choices))
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
